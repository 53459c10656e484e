#!/bin/sh
# Fails when the AVX2 kernel object holds a shared (weak) copy of a
# function whose code has AVX (VEX-encoded) instructions.
#
# kernel_avx2.cc is the one TU built with -mavx2 (docs/kernels.md). An
# out-of-line copy it emits of an inline or template function that other
# TUs also define is AVX2 code the linker may keep for the whole program,
# which would then fault on a CPU without AVX2 although the runtime
# dispatch never picks the avx2 backend there. Such copies appear when the
# compiler declines to inline (low optimization levels, other inliner
# heuristics), so the check runs on every build's own object.
#
# Registered as the kernels-labeled kernel_avx2_object_test ctest
# (tests/CMakeLists.txt); runnable by hand after a build:
#   tools/check_avx2_object.sh OBJECT...
# Each argument may also be a ;-separated list of objects; only those
# named kernel_avx2 are checked. NM and OBJDUMP name the tools (default nm
# and objdump).
set -eu

nm_tool="${NM:-nm}"
objdump_tool="${OBJDUMP:-objdump}"

objects=""
for arg in "$@"; do
  for object in $(printf '%s\n' "$arg" | tr ';' '\n'); do
    case "$(basename "$object")" in
      kernel_avx2.*) objects="$objects $object" ;;
    esac
  done
done
if [ -z "$objects" ]; then
  echo "error: no kernel_avx2 object among the arguments" >&2
  exit 1
fi

status=0
for object in $objects; do
  weak="$("$nm_tool" "$object" |
      awk '$2 == "W" || $2 == "V" { printf "%s ", $3 }')"
  # Per function of the disassembly: whether it is a weak symbol, and
  # whether any instruction mnemonic is a VEX one (v...). A file without
  # any VEX instruction means the disassembly was not parsed as expected.
  if ! "$objdump_tool" -d --no-show-raw-insn "$object" |
      awk -v weak="$weak" -v object="$object" '
        BEGIN {
          n = split(weak, names, " ")
          for (i = 1; i <= n; i++) shared[names[i]] = 1
        }
        /^[0-9a-f]+ <.*>:$/ {
          name = $2
          sub(/^</, "", name)
          sub(/>:$/, "", name)
          current = (name in shared) ? name : ""
          next
        }
        $2 ~ /^v[a-z]/ {
          vex = 1
          if (current != "") bad[current] = 1
        }
        END {
          if (!vex) {
            print "error: no AVX instruction found in " object
            exit 1
          }
          failed = 0
          for (name in bad) {
            print "error: " object " holds a shared copy of " name \
                " with AVX instructions"
            failed = 1
          }
          exit failed
        }' >&2; then
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "no shared AVX copies in:$objects"
exit "$status"
