// Tests for the CLI support pieces: flag parsing and approach-name parsing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/approaches.h"
#include "util/flags.h"

namespace alem {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, EqualsSyntax) {
  const FlagParser flags = Parse({"--name=value", "--count=42"});
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_EQ(flags.GetInt("count", 0), 42);
}

TEST(FlagParserTest, SpaceSyntax) {
  const FlagParser flags = Parse({"--name", "value", "--rate", "0.25"});
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.25);
}

TEST(FlagParserTest, BareBooleanFlag) {
  const FlagParser flags = Parse({"--holdout", "--verbose=false"});
  EXPECT_TRUE(flags.GetBool("holdout", false));
  EXPECT_FALSE(flags.GetBool("verbose", true));
  EXPECT_TRUE(flags.GetBool("absent", true));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagParserTest, PositionalArguments) {
  const FlagParser flags = Parse({"run", "--x=1", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserTest, LastValueWins) {
  const FlagParser flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n", 0), 2);
}

TEST(FlagParserTest, UnknownFlagsNamesEveryFlagOutsideTheAcceptedList) {
  // A misspelled gate flag is a parsed flag nobody queries: the tools ask
  // for the unknown ones and refuse to run rather than silently ignore it.
  const FlagParser flags = Parse({"check", "--counter_tol=0", "--exact-curve",
                                  "--max-label", "5", "base.json"});
  EXPECT_EQ(flags.UnknownFlags({"counter-tol", "exact-curve"}),
            (std::vector<std::string>{"counter_tol", "max-label"}));
  EXPECT_TRUE(
      flags.UnknownFlags({"counter_tol", "exact-curve", "max-label"}).empty());
  EXPECT_EQ(flags.UnknownFlags({}).size(), 3u);
  // The query changes nothing: values and positionals read as before.
  EXPECT_EQ(flags.GetInt("max-label", 0), 5);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"check", "base.json"}));
  EXPECT_TRUE(Parse({"run"}).UnknownFlags({}).empty());
}

// ---- ApproachFromName ----

TEST(ApproachFromNameTest, ParsesAllDocumentedNames) {
  struct Case {
    const char* name;
    const char* display;
  };
  const Case cases[] = {
      {"trees20", "Trees(20)"},
      {"trees2", "Trees(2)"},
      {"supervised-trees10", "SupervisedTrees(Random-10)"},
      {"linear-margin", "Linear-Margin"},
      {"linear-margin-1dim", "Linear-Margin(1Dim)"},
      {"linear-margin-10dim", "Linear-Margin(10Dim)"},
      {"linear-margin-ensemble", "Linear-Margin(Ensemble)"},
      {"linear-qbc2", "Linear-QBC(2)"},
      {"linear-qbc20", "Linear-QBC(20)"},
      {"nn-margin", "NN-Margin"},
      {"nn-margin-ensemble", "NN-Margin(Ensemble)"},
      {"nn-qbc2", "NN-QBC(2)"},
      {"rules", "Rules(LFP/LFN)"},
      {"rules-qbc5", "Rules-QBC(5)"},
      {"deepmatcher", "DeepMatcher"},
  };
  for (const Case& c : cases) {
    ApproachSpec spec;
    ASSERT_TRUE(ApproachFromName(c.name, &spec)) << c.name;
    EXPECT_EQ(spec.DisplayName(), c.display) << c.name;
  }
}

TEST(ApproachFromNameTest, RejectsUnknownNames) {
  ApproachSpec spec;
  EXPECT_FALSE(ApproachFromName("", &spec));
  EXPECT_FALSE(ApproachFromName("trees", &spec));
  EXPECT_FALSE(ApproachFromName("trees0", &spec));
  EXPECT_FALSE(ApproachFromName("treesx", &spec));
  EXPECT_FALSE(ApproachFromName("linear-margin-dim", &spec));
  EXPECT_FALSE(ApproachFromName("linear-margin-xdim", &spec));
  EXPECT_FALSE(ApproachFromName("svm", &spec));
}

TEST(ApproachFromNameTest, ParsedSpecsBuild) {
  for (const char* name : {"trees5", "linear-margin-3dim", "rules-qbc3"}) {
    ApproachSpec spec;
    ASSERT_TRUE(ApproachFromName(name, &spec));
    const Approach approach = MakeApproach(spec, 1);
    EXPECT_TRUE(approach.selector->CompatibleWith(*approach.learner));
  }
}

}  // namespace
}  // namespace alem
