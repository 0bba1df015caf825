#!/usr/bin/env python3
"""Line coverage of src/ from a --coverage build, checked against a floor.

Build with g++-12 and --coverage, run the whole suite, then point this
script at the build tree:

  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_COMPILER=g++-12 \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j
  ctest --test-dir build-cov -j
  python3 tools/coverage_floor.py --build-dir build-cov

It runs GCOV in JSON mode over every object of the src/ libraries and merges
the line counts of each src/ file across objects: a line of a header or
template counts as run if any object ran it. The source tree is the one the
build tree was configured from (CMAKE_HOME_DIRECTORY in its CMakeCache.txt).
It prints the files with the most unrun lines and the total, and exits 1 if
the total falls below FLOOR_PCT. The floor is only ever raised, to what a
change measures; a change that needs it lowered has removed tests or reach.
"""

import argparse
import json
import os
import subprocess
import sys

# src/ line coverage (Debug, -O0, full ctest) that a change must keep,
# measured with g++ 12.2 and GCOV. Another gcc may count lines differently,
# so the CI job builds with the same major version.
FLOOR_PCT = 93.2
GCOV = "gcov-12"
# Files listed by unrun lines.
TOP = 10


def source_root(build_dir):
    """The source directory the build tree was configured from."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    sys.exit(f"coverage_floor: no CMAKE_HOME_DIRECTORY in {build_dir}")


def gcov_lines(notes, src_dir):
    """{src file: {line: runs}} over the given .gcno files."""
    lines = {}
    for start in range(0, len(notes), 32):
        out = subprocess.run(
            [GCOV, "--json-format", "--stdout", *notes[start:start + 32]],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            report = json.loads(doc)
            cwd = report.get("current_working_directory", "")
            for entry in report["files"]:
                path = os.path.realpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(src_dir):
                    continue
                counts = lines.setdefault(path, {})
                for line in entry["lines"]:
                    n = line["line_number"]
                    counts[n] = max(counts.get(n, 0), line["count"])
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True,
                        help="build tree configured with --coverage")
    build_dir = os.path.realpath(parser.parse_args().build_dir)
    root = source_root(build_dir)
    src_dir = os.path.join(root, "src") + os.sep
    obj_dir = os.path.join(build_dir, "src")
    notes = sorted(
        os.path.join(d, f) for d, _, files in os.walk(obj_dir)
        for f in files if f.endswith(".gcno"))
    if not notes:
        sys.exit(f"coverage_floor: no .gcno under {obj_dir}; "
                 "configure with --coverage")

    lines = gcov_lines(notes, src_dir)
    total = sum(len(c) for c in lines.values())
    run = sum(1 for c in lines.values() for n in c.values() if n > 0)
    if total == 0:
        sys.exit("coverage_floor: gcov reported no src/ lines")
    unrun = sorted(((len(c) - sum(1 for n in c.values() if n > 0), path)
                    for path, c in lines.items()), reverse=True)
    for missed, path in unrun[:TOP]:
        if missed:
            print(f"{missed:6d} unrun  {os.path.relpath(path, root)}")
    pct = 100.0 * run / total
    print(f"src/ line coverage: {run}/{total} = {pct:.2f}% "
          f"(floor {FLOOR_PCT:.1f}%)")
    if pct < FLOOR_PCT:
        print("coverage_floor: below the floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
