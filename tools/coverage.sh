#!/usr/bin/env bash
# Line coverage of src/ under the tier-1 test suite, with nothing but gcc's gcov and
# python3.
#
# Configures a Debug build with --coverage -O0 in its own directory, builds it, runs
# the tier-1 ctest suite, then reads gcov's JSON report for every object compiled
# from src/ and prints:
#   - the line coverage of each src/*.cc file and of all of them together;
#   - the out-of-line functions defined in src/*.cc that never ran. Functions defined
#     in headers are left out: every translation unit that uses an inline function
#     compiles its own copy, and gcov can report one copy at 0% while another runs.
# It exits 1 when the src/*.cc line coverage is below FLOOR (the CI coverage job).
#
# Usage:
#   tools/coverage.sh
#   CXX=g++-12 tools/coverage.sh   # the compiler the floor was measured with
#
# Environment:
#   COV_BUILD_DIR   build directory (default: <repo>/build-cov)
set -euo pipefail

# Lowest acceptable src/*.cc line coverage, in percent: what the tree reached when
# the floor was last raised, with gcc 12. Another gcc release may count lines
# differently, so CI builds with g++-12. Raise it as tests cover more.
FLOOR=92.7

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${COV_BUILD_DIR:-$REPO/build-cov}"

cmake -S "$REPO" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" >/dev/null
cmake --build "$BUILD" -j "$(nproc)"

# Count this run only.
find "$BUILD" -name '*.gcda' -delete
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")

# gcov reads only the notes files of its own gcc release: use the compiler's
# gcov-<major> when it is installed.
CXX_BIN="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
GCOV="gcov-$("$CXX_BIN" -dumpfullversion | cut -d. -f1)"
command -v "$GCOV" >/dev/null || GCOV=gcov

python3 - "$REPO" "$BUILD" "$GCOV" "$FLOOR" <<'PY'
import json
import os
import subprocess
import sys

repo, build, gcov, floor = sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4])
lines = {}      # src/x.cc -> {line number: executed}
functions = {}  # (src/x.cc, line, name) -> executed

# gcov reads the notes file (.gcno) of every object; an object whose code never ran
# has no .gcda and reports all its lines as not run.
for root, _, names in sorted(os.walk(os.path.join(build, "src"))):
    for name in sorted(n for n in names if n.endswith(".gcno")):
        out = subprocess.run([gcov, "-j", "-t", name], cwd=root, check=True,
                             capture_output=True, text=True).stdout
        report = json.loads(out)
        for entry in report["files"]:
            path = os.path.relpath(
                os.path.join(report["current_working_directory"], entry["file"]), repo)
            if not (path.startswith("src" + os.sep) and path.endswith(".cc")):
                continue
            file_lines = lines.setdefault(path, {})
            for line in entry["lines"]:
                n = line["line_number"]
                file_lines[n] = file_lines.get(n, False) or line["count"] > 0
            for fn in entry["functions"]:
                key = (path, fn["start_line"], fn["demangled_name"])
                functions[key] = functions.get(key, False) or fn["execution_count"] > 0

rows = []
for path, file_lines in lines.items():
    run = sum(file_lines.values())
    rows.append((len(file_lines) - run, path, len(file_lines), run))
rows.sort(key=lambda r: (-r[0], r[1]))
total = sum(r[2] for r in rows)
ran = sum(r[3] for r in rows)
percent = 100.0 * ran / total if total else 0.0

print(f"\n{'file':<36} {'lines':>6} {'never run':>10} {'coverage':>9}")
for never, path, count, run in rows:
    print(f"{path:<36} {count:>6} {never:>10} {100.0 * run / count:>8.1f}%")
print(f"\nsrc/*.cc: {percent:.2f}% of {total:,} executable lines ran; "
      f"{total - ran:,} never did.")

never_run = sorted(k for k, executed in functions.items() if not executed)
print(f"\nOut-of-line functions in src/*.cc that never ran ({len(never_run)}):")
for path, line, name in never_run:
    print(f"  {path}:{line}  {name}")

if percent < floor:
    print(f"\nFAIL: src/*.cc line coverage {percent:.2f}% is below the floor {floor}%")
    sys.exit(1)
PY
