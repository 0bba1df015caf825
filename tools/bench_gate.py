#!/usr/bin/env python3
"""bench_gate: CI perf gate over committed BENCH_*.json files.

Sim benches are exact
---------------------
The sim-mode benches (E1, E11, E14, E16, E17) take every number from the
simulated clock and the channel counters, so a fresh run on an unchanged tree
reproduces the committed file byte for byte. A bench with no block in
tools/bench_tolerances.json is therefore compared exactly: rows are matched by
position, every row and every field must match the committed file, and any
difference fails, better or worse. The report prints one line per difference:
the row key (the shortest leading run of fields that names the row), the
field, and the committed and fresh values.

Bands are for wall-clock benches only
-------------------------------------
A block in tools/bench_tolerances.json marks a wall-clock bench (E15), whose
numbers are machine-dependent. It names:
  keys     -- fields that identify a row; rows are matched by key tuple.
  metrics  -- measured fields, each with a band: rel_tol, and abs_tol for
              near-zero values (default 0.001).
Drift beyond max(abs_tol, |base| * rel_tol) is reported as advisory and never
fails. Structural problems still fail: a missing or extra row, a metric
missing from the fresh run, or a numeric field registered as neither a key nor
a metric.

Re-baseline protocol
--------------------
A change that moves simulated behaviour on purpose does three things:
  - it regenerates the affected BENCH_*.json files and the AccountingPinTest
    counts;
  - it lists in CHANGES.md each changed column and its cause;
  - it leaves the flag-off fingerprint tests as they are.
Any move not committed this way fails the gate.

Usage
-----
  tools/bench_gate.py --root DIR --fresh-dir DIR [--report FILE] [--only N]
      Compare fresh BENCH_*.json in --fresh-dir against the committed ones
      at the repo root. Exit 1 on any difference or structural violation.
  tools/bench_gate.py --root DIR --self-test
      Prove the gate passes on the committed files compared against
      themselves and fails on the seeded fixture in tests/bench_gate_fixtures/
      and on one-field edits of a committed sim row (mirrors
      finelog_check --self-test).
"""

import argparse
import glob
import json
import os
import sys
import tempfile

TOLERANCES_PATH = os.path.join("tools", "bench_tolerances.json")
FIXTURE_DIR = os.path.join("tests", "bench_gate_fixtures")
DEFAULT_ABS_TOL = 0.001


def load_bench(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "bench" not in doc or not isinstance(doc.get("rows"), list):
        raise ValueError(f"{path}: not a BENCH file (need 'bench'+'rows')")
    return doc


def row_labels(rows):
    """Names each row by the shortest leading run of its fields that no other
    row shares: bench writers emit the grid coordinates first."""
    items = [list(row.items()) for row in rows]
    width = 1
    while (width < max(map(len, items), default=0)
           and len({tuple(i[:width]) for i in items}) < len(items)):
        width += 1
    return [", ".join(f"{k}={v}" for k, v in i[:width]) for i in items]


class Gate:
    def __init__(self, root):
        self.root = root
        path = os.path.join(root, TOLERANCES_PATH)
        with open(path, encoding="utf-8") as fh:
            self.config = json.load(fh)
        self.lines = []

    def log(self, line):
        self.lines.append(line)

    # -- exact (sim) benches --------------------------------------------------

    @staticmethod
    def compare_exact(name, committed, fresh):
        """Returns one line per differing field, missing row or extra row."""
        base_rows, new_rows = committed["rows"], fresh["rows"]
        labels = row_labels(base_rows)
        diffs = []
        for label, base, new in zip(labels, base_rows, new_rows):
            for field in dict.fromkeys([*base, *new]):
                old, cur = base.get(field, "missing"), new.get(field, "missing")
                if old != cur:
                    diffs.append(f"DIFF {name} [{label}] {field}: "
                                 f"{old} -> {cur}")
        for label in labels[len(new_rows):]:
            diffs.append(f"DIFF {name} [{label}]: row missing in fresh run")
        for i in range(len(base_rows), len(new_rows)):
            diffs.append(f"DIFF {name} row {i}: extra row in fresh run")
        return diffs

    # -- banded (wall-clock) benches ------------------------------------------

    def check_registration(self, name, doc):
        """Every numeric field must be a registered key or metric."""
        spec = self.config[name]
        known = set(spec["keys"]) | set(spec["metrics"])
        errors = []
        for i, row in enumerate(doc["rows"]):
            for field, value in row.items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue  # String identity fields need no band.
                if field not in known:
                    errors.append(
                        f"ERROR {name} row {i}: metric '{field}' is not "
                        f"registered in {TOLERANCES_PATH} (add it to keys or "
                        "metrics)")
        return errors

    def compare_banded(self, name, committed, fresh):
        """Logs out-of-band drift as advisory; returns structural errors."""
        spec = self.config[name]
        keys = spec["keys"]

        def by_key(doc):
            return {tuple((k, r.get(k)) for k in keys): r for r in doc["rows"]}

        def tag(key):
            return ", ".join(f"{k}={v}" for k, v in key)

        errors = []
        fresh_rows, committed_rows = by_key(fresh), by_key(committed)
        for key, base_row in committed_rows.items():
            if key not in fresh_rows:
                errors.append(f"ERROR {name} [{tag(key)}]: row missing in "
                              "fresh run")
                continue
            new_row = fresh_rows[key]
            for metric, band in spec["metrics"].items():
                if metric not in base_row:
                    continue  # Not every bench row reports every metric.
                if metric not in new_row:
                    errors.append(f"ERROR {name} [{tag(key)}] {metric}: "
                                  "missing in fresh run")
                    continue
                base, new = float(base_row[metric]), float(new_row[metric])
                allowed = max(float(band.get("abs_tol", DEFAULT_ABS_TOL)),
                              abs(base) * float(band.get("rel_tol", 0.0)))
                if abs(new - base) > allowed:
                    self.log(f"advisory {name} [{tag(key)}] {metric}: "
                             f"{base:.3f} -> {new:.3f} "
                             f"(allowed +/-{allowed:.3f}), not gated")
        for key in fresh_rows:
            if key not in committed_rows:
                errors.append(f"ERROR {name} [{tag(key)}]: new row not in "
                              "committed file (recommit the BENCH json)")
        return errors

    # -- entry point ----------------------------------------------------------

    def run(self, fresh_dir, only=None):
        committed = sorted(glob.glob(os.path.join(self.root, "BENCH_*.json")))
        if not committed:
            self.log("no committed BENCH_*.json found")
            return 1
        failures = 0
        for path in committed:
            doc = load_bench(path)
            name = doc["bench"]
            if only and name != only:
                continue
            banded = name in self.config
            fresh_path = os.path.join(fresh_dir, os.path.basename(path))
            if not os.path.isfile(fresh_path):
                errors = [f"ERROR {name}: fresh file {fresh_path} missing "
                          "(bench not run?)"]
            elif banded:
                fresh = load_bench(fresh_path)
                errors = (self.check_registration(name, doc)
                          + self.check_registration(name, fresh)
                          or self.compare_banded(name, doc, fresh))
            else:
                errors = self.compare_exact(name, doc, load_bench(fresh_path))
            for line in errors:
                self.log(line)
            failures += len(errors)
            if not errors:
                self.log(f"{name}: {len(doc['rows'])} rows "
                         + ("within bands" if banded else "identical"))
        self.log(f"bench_gate: {failures} violation(s)")
        return 1 if failures else 0


def gate_edited_row(root, fname, edit):
    """Runs the gate on a copy of a committed BENCH file whose first row was
    changed by `edit`; returns (exit code, report lines)."""
    doc = load_bench(os.path.join(root, fname))
    edit(doc["rows"][0])
    gate = Gate(root)
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rc = gate.run(tmp, only=doc["bench"])
    return rc, gate.lines


def run_self_test(root):
    failures = []

    # 1. Committed files compared against themselves must pass.
    gate = Gate(root)
    if gate.run(root) != 0:
        failures.append("gate failed on committed files vs themselves:")
        failures.extend("  " + l for l in gate.lines)
    else:
        print("self-test ok: committed BENCH files pass against themselves")

    # 2. The seeded regressing fixture must fail, on the fields it changes.
    fixture_dir = os.path.join(root, FIXTURE_DIR)
    gate = Gate(root)
    rc = gate.run(fixture_dir, only="e14_contention")
    report = "\n".join(gate.lines)
    if rc == 0:
        failures.append("regressing fixture was NOT caught by the gate")
    elif "DIFF" not in report:
        failures.append("fixture failed for the wrong reason:\n" + report)
    else:
        print("self-test ok: seeded regressing fixture trips the gate")

    # 3. A one-field edit of a sim row fails, in either direction, and so
    # does an extra field.
    edits = {
        "1 us us_per_commit bump":
            lambda r: r.update(us_per_commit=r["us_per_commit"] + 1),
        "1 us us_per_commit improvement":
            lambda r: r.update(us_per_commit=r["us_per_commit"] - 1),
        "extra field in a sim row": lambda r: r.update(bogus_metric=1.0),
    }
    for label, edit in edits.items():
        rc, lines = gate_edited_row(root, "BENCH_e1_commit_cost.json", edit)
        diffs = [l for l in lines if l.startswith("DIFF")]
        if rc == 0 or len(diffs) != 1:
            failures.append(f"{label} was not reported as one difference:\n"
                            + "\n".join(lines))
        else:
            print(f"self-test ok: {label} fails the gate")

    # 4. An unregistered metric in a banded bench must be rejected.
    gate = Gate(root)
    doc = {"bench": "e15_realclock",
           "rows": [{"clients": 4, "max_batch_items": 1,
                     "group_commit_max_txns": 0, "bogus_metric": 1.0}]}
    if not gate.check_registration("e15_realclock", doc):
        failures.append("unregistered metric was not rejected")
    else:
        print("self-test ok: unregistered metric rejected")

    # 5. Banded metrics report drift but never trip the gate.
    gate = Gate(root)
    gate.config["__advisory_fixture"] = {
        "keys": ["clients"],
        "metrics": {"wall_ms": {"rel_tol": 0.5}},
    }
    base = {"bench": "__advisory_fixture",
            "rows": [{"clients": 4, "wall_ms": 10.0}]}
    worse = {"bench": "__advisory_fixture",
             "rows": [{"clients": 4, "wall_ms": 1000.0}]}
    errors = gate.compare_banded("__advisory_fixture", base, worse)
    advisories = [l for l in gate.lines if l.startswith("advisory")]
    if errors:
        failures.append("advisory metric tripped the gate:\n"
                        + "\n".join(errors))
    elif not advisories:
        failures.append("advisory out-of-band drift was not reported")
    else:
        print("self-test ok: advisory drift reported without failing")

    if failures:
        for f in failures:
            print("self-test FAIL: " + f, file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--fresh-dir", default=None,
                        help="directory holding freshly generated "
                             "BENCH_*.json files")
    parser.add_argument("--report", default=None,
                        help="also write the diff report to this file")
    parser.add_argument("--only", default=None,
                        help="gate only the named bench")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate passes on committed numbers "
                             "and catches the seeded and edited fixtures")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return run_self_test(root)
    if not args.fresh_dir:
        parser.error("--fresh-dir is required (or use --self-test)")
    gate = Gate(root)
    rc = gate.run(args.fresh_dir, only=args.only)
    report = "\n".join(gate.lines) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)
    return rc


if __name__ == "__main__":
    sys.exit(main())
