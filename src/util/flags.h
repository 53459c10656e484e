// Minimal command-line flag parsing for the CLI tools.
//
// Supports --name=value, --name value, bare boolean --name, and positional
// arguments. No registration step: callers query by name with a default,
// and a tool that wants to reject misspelled flags asks UnknownFlags.

#ifndef ALEM_UTIL_FLAGS_H_
#define ALEM_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace alem {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  // A bare flag (no value) counts as true; "false"/"0" count as false.
  bool GetBool(const std::string& name, bool default_value) const;

  // Non-flag arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  // The parsed flag names not in `accepted`, sorted.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string_view>& accepted) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace alem

#endif  // ALEM_UTIL_FLAGS_H_
