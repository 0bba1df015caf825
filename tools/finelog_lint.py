#!/usr/bin/env python3
"""finelog_lint: repo-specific static checks the compiler cannot express.

Rules
-----
  determinism      rand()/srand()/time()/std::random_device are banned outside
                   src/common/rng.h and src/common/clock.h -- wall-clock or
                   process randomness would break crash-sweep reproducibility
                   (the same (seed, hit_index) pair must replay identically).
  fail-point       every FaultInjector::Evaluate() site names its fail point
                   as "<node>.<component>.<op>" (lower_snake segments); the
                   op suffix literal must be well-formed and no two sites may
                   reuse the same point expression.
  raw-new-delete   no raw `new` outside an owning smart-pointer expression on
                   the same line (the private-constructor factory idiom
                   `std::unique_ptr<T>(new T(...))` is allowed); no `delete`
                   statements at all (deleted functions are fine).
  page-memcpy      a memcpy/memset whose destination is a Page buffer
                   (`buf_.data() + ...`) must carry a FINELOG_CHECK bounds
                   assertion within the 3 preceding lines -- shipped page
                   images cross the wire and slot offsets cannot be trusted.
  include-hygiene  src/ headers use a guard named FINELOG_<PATH>_H_ matching
                   their path, and quoted includes are repo-root-relative
                   (no "../" traversal).
  metrics-string-key
                   Metrics::Add / Metrics::Get with a pure string-literal key
                   is banned in src/ -- well-known counters must be interned
                   as Counter enum values (dense-array hot path, no string
                   construction). Dynamically composed names such as
                   `"fault." + point` remain allowed.
  net-fail-point   wire fail points follow the delivery-layer grammar
                   net.<side>.<endpoint>.<fault> with side in {client,server}
                   and fault in {drop,dup,delay,reorder}. Any string literal
                   shaped like a fail point (>= 3 dot segments) that starts
                   with "net." is checked; two-segment "net.*" literals are
                   metrics counter names and exempt, as are prefix fragments
                   ending in ".".
  liveness-fail-point
                   liveness fail points follow the grammar
                   liveness.<node>.<op> with node in {server,client} and a
                   lower_snake op. Any string literal with >= 3 dot segments
                   starting with "liveness." is checked; two-segment
                   "liveness.*" literals are metrics counter names and
                   exempt.
  would-block-sweep
                   the WouldBlockReason enum (src/common/status.h) and the
                   WouldBlockReasonName table (status.cc) must cover each
                   other exactly: every enumerator (kRecoveringPage, ...)
                   prints a readable name, and no stale case survives an
                   enum edit. Degraded-path retry policy keys on these
                   values, so a silent gap ships undiagnosable refusals.
  message-sizes    CallOptions and RpcReply (src/net/rpc.h) are named only
                   under src/net/: message types and wire sizes are defined
                   with the request structs in src/net/endpoints.h, so no
                   endpoint body can hand-compute a message size or pick
                   its own accounting options again.
  scenario-helpers the fault-scenario machinery lives in tests/scenario.*
                   only (DESIGN.md sections 10 and 13): no other test file
                   defines RunFingerprint, ReadFile, ProbeRead,
                   AppendSummary or RunSeededWorkload, or runs its own
                   crash-point loop (arms a fault with ArmGlobalHit).
                   Sweeps grew one copy of these per file before the
                   runner existed.

Usage
-----
  tools/finelog_lint.py [--root DIR]     lint the tree (exit 1 on violations)
  tools/finelog_lint.py --self-test      run the rules against the seeded bad
                                         fixtures in tests/lint_fixtures and
                                         assert each rule fires
"""

import argparse
import os
import re
import sys

from finelog_cpp import Violation, strip_comments_and_strings

SRC_DIRS = ["src"]
# Determinism matters wherever workloads run, not just in src/.
DETERMINISM_DIRS = ["src", "tests", "bench", "examples"]
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")
RNG_ALLOWLIST = {
    os.path.join("src", "common", "rng.h"),
    os.path.join("src", "common", "clock.h"),
}

TOP_LEVEL_INCLUDE_DIRS = {
    "common", "util", "log", "storage", "buffer", "lock", "client", "server",
    "core", "net", "bench", "tests",
}


# --- determinism -----------------------------------------------------------

DETERMINISM_RE = re.compile(
    r"(?<![A-Za-z0-9_.>])(rand|srand|time)\s*\(|std::random_device")


def check_determinism(relpath, text, stripped):
    del text
    out = []
    if relpath in RNG_ALLOWLIST:
        return out
    for lineno, line in enumerate(stripped.splitlines(), 1):
        m = DETERMINISM_RE.search(line)
        if m:
            what = m.group(1) or "std::random_device"
            out.append(Violation(
                relpath, lineno, "determinism",
                f"`{what}` breaks crash-sweep determinism; use common/rng.h "
                "or common/clock.h"))
    return out


# --- fail-point grammar and uniqueness -------------------------------------

POINT_LITERAL_RE = re.compile(
    r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")
OP_SUFFIX_RE = re.compile(r"^\.[a-z][a-z0-9_]*$")
EVALUATE_RE = re.compile(r"(?:\.|->)\s*Evaluate\s*\(")


def extract_first_arg(text, open_paren_idx):
    """Returns the text of the first argument after the '(' at
    open_paren_idx, stopping at the first top-level comma or the closing
    paren."""
    depth = 0
    i = open_paren_idx
    start = open_paren_idx + 1
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[start:i]
        elif c == "," and depth == 1:
            return text[start:i]
        i += 1
    return text[start:]


def check_fail_points(relpath, text, stripped, registry):
    out = []
    for m in EVALUATE_RE.finditer(stripped):
        open_paren = stripped.index("(", m.start())
        lineno = stripped.count("\n", 0, m.start()) + 1
        # Skip the method's own declaration/definition.
        if "std::string" in extract_first_arg(stripped, open_paren):
            continue
        # Read literal text from the original (strings are blanked in
        # `stripped`), using identical offsets.
        arg = extract_first_arg(text, open_paren).strip()
        arg_norm = " ".join(arg.split())
        literals = re.findall(r'"((?:[^"\\]|\\.)*)"', arg)
        if not literals:
            out.append(Violation(
                relpath, lineno, "fail-point",
                "Evaluate() fail-point name has no string literal part; "
                "points must be statically auditable"))
            continue
        if arg_norm.startswith('"') and len(literals) == 1 and "+" not in arg:
            # Whole-literal point: full grammar check.
            if not POINT_LITERAL_RE.match(literals[0]):
                out.append(Violation(
                    relpath, lineno, "fail-point",
                    f'fail point "{literals[0]}" does not match '
                    "<node>.<component>.<op> (lower_snake segments)"))
        else:
            # "<prefix expr> + \".op\"" form: the op suffix is the literal.
            suffix = literals[-1]
            if not OP_SUFFIX_RE.match(suffix):
                out.append(Violation(
                    relpath, lineno, "fail-point",
                    f'fail-point op suffix "{suffix}" does not match '
                    '".op" (lower_snake)'))
        prior = registry.get(arg_norm)
        if prior is not None:
            out.append(Violation(
                relpath, lineno, "fail-point",
                f"duplicate fail point {arg_norm!r} (first used at "
                f"{prior[0]}:{prior[1]}); every site must be unique"))
        else:
            registry[arg_norm] = (relpath, lineno)
    return out


# --- net fail-point grammar ------------------------------------------------

NET_POINT_RE = re.compile(
    r"^net\.(client|server)\.[a-z][a-z0-9_]*\.(drop|dup|delay|reorder)$")


def check_net_fail_points(relpath, text, stripped):
    out = []
    # Locate literal spans in `stripped` (comments are blanked there, so
    # quoted examples in prose are skipped) and read the content from the
    # original text at identical offsets.
    for m in re.finditer(r'"[^"\n]*"', stripped):
        lit = text[m.start() + 1:m.end() - 1]
        if not lit.startswith("net."):
            continue
        if lit.count(".") < 2:
            continue  # Two-segment "net.*": a metrics counter name.
        if lit.endswith("."):
            continue  # Prefix fragment composed with a ".fault" suffix.
        if not NET_POINT_RE.match(lit):
            lineno = text.count("\n", 0, m.start()) + 1
            out.append(Violation(
                relpath, lineno, "net-fail-point",
                f'wire fail point "{lit}" does not match '
                "net.<side>.<endpoint>.<fault> with side in "
                "{client,server} and fault in {drop,dup,delay,reorder}"))
    return out


# --- liveness fail-point grammar -------------------------------------------

LIVENESS_POINT_RE = re.compile(r"^liveness\.(server|client)\.[a-z][a-z0-9_]*$")


def check_liveness_fail_points(relpath, text, stripped):
    out = []
    # Same literal-location strategy as check_net_fail_points: find spans in
    # `stripped` (prose in comments is blanked), read from the original.
    for m in re.finditer(r'"[^"\n]*"', stripped):
        lit = text[m.start() + 1:m.end() - 1]
        if not lit.startswith("liveness."):
            continue
        if lit.count(".") < 2:
            continue  # Two-segment "liveness.*": a metrics counter name.
        if not LIVENESS_POINT_RE.match(lit):
            lineno = text.count("\n", 0, m.start()) + 1
            out.append(Violation(
                relpath, lineno, "liveness-fail-point",
                f'liveness fail point "{lit}" does not match '
                "liveness.<node>.<op> with node in {server,client} "
                "(lower_snake op)"))
    return out


# The rpc-chokepoint rule moved to tools/finelog_verify.py: the AST-level
# call-graph version cannot be fooled by comments, strings or macro names,
# and its fixture lives in tests/verify_fixtures/bad_raw_channel.cc.


# --- message sizes live with the message definitions ------------------------

NET_DIR = os.path.join("src", "net") + os.sep
RPC_INTERNALS_RE = re.compile(r"\b(CallOptions|RpcReply)\b")


def check_message_sizes(relpath, text, stripped):
    del text
    out = []
    if relpath.startswith(NET_DIR):
        return out
    for lineno, line in enumerate(stripped.splitlines(), 1):
        m = RPC_INTERNALS_RE.search(line)
        if m:
            out.append(Violation(
                relpath, lineno, "message-sizes",
                f"`{m.group(1)}` outside src/net/; issue typed exchanges "
                "(Rpc::Exchange / Rpc::Notify with a wire:: request struct) "
                "so options and sizes come from net/endpoints.h"))
    return out


# --- scenario helpers live in tests/scenario.* -------------------------------

TESTS_DIR = "tests" + os.sep
SCENARIO_PREFIX = os.path.join("tests", "scenario.")
SCENARIO_HELPERS_RE = re.compile(
    r"\b(?:(?:struct|class)\s+(RunFingerprint)\b"
    r"|(RunFingerprint|ReadFile|ProbeRead|AppendSummary|RunSeededWorkload)"
    r"\s*\()")
CRASH_POINT_LOOP_RE = re.compile(r"\bArmGlobalHit\s*\(")
TRAILING_QUALIFIERS_RE = re.compile(r"\s*(?:(?:const|noexcept|override)\b\s*)*")


def check_scenario_helpers(relpath, text, stripped):
    del text
    out = []
    if not relpath.startswith(TESTS_DIR) or relpath.startswith(SCENARIO_PREFIX):
        return out
    for m in SCENARIO_HELPERS_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        name = m.group(1) or m.group(2)
        if m.group(2):
            # A call is fine; a definition has its body right after the
            # parameter list.
            depth, i = 0, m.end() - 1
            while i < len(stripped):
                depth += {"(": 1, ")": -1}.get(stripped[i], 0)
                if depth == 0:
                    break
                i += 1
            after = TRAILING_QUALIFIERS_RE.match(stripped, i + 1).end()
            if not stripped.startswith("{", after):
                continue
        out.append(Violation(
            relpath, lineno, "scenario-helpers",
            f"`{name}` defined outside tests/scenario.h; use the shared "
            "scenario runner's copy"))
    for m in CRASH_POINT_LOOP_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        out.append(Violation(
            relpath, lineno, "scenario-helpers",
            "crash-point loop outside tests/scenario.h; set Scenario::hit "
            "and call RunScenario"))
    return out


# --- raw new / delete ------------------------------------------------------

NEW_RE = re.compile(r"\bnew\b\s+[A-Za-z_:(]")
DELETE_RE = re.compile(r"(?<![=\w])\bdelete\b(?!\s*;?\s*$)|\bdelete\b\s*\[")
SMART_NEW_RE = re.compile(r"(unique_ptr|shared_ptr)\s*<[^;]*>\s*\(\s*new\b")


def check_new_delete(relpath, text, stripped):
    del text
    out = []
    lines = stripped.splitlines()
    for lineno, line in enumerate(lines, 1):
        # The factory idiom may wrap: join with the previous line so
        # `unique_ptr<T>(\n    new T(...))` is recognized.
        joined = (lines[lineno - 2] + " " if lineno >= 2 else "") + line
        if NEW_RE.search(line) and not SMART_NEW_RE.search(joined):
            out.append(Violation(
                relpath, lineno, "raw-new-delete",
                "raw `new` outside an owning smart-pointer expression"))
        if re.search(r"=\s*delete\b", line):
            continue  # Deleted special member.
        if re.search(r"\bdelete\b\s*(\[\s*\])?\s*[A-Za-z_(*]", line):
            out.append(Violation(
                relpath, lineno, "raw-new-delete",
                "raw `delete`; ownership must go through smart pointers"))
    return out


# --- memcpy into Page ------------------------------------------------------

MEM_WRITE_RE = re.compile(r"\b(?:std::)?(memcpy|memset)\s*\(")
CHECK_WINDOW = 3


def check_page_memcpy(relpath, text, stripped):
    del text
    out = []
    lines = stripped.splitlines()
    for idx, line in enumerate(lines):
        m = MEM_WRITE_RE.search(line)
        if not m:
            continue
        open_paren = line.index("(", m.start())
        dest = extract_first_arg(line, open_paren)
        if "buf_.data()" not in dest:
            continue
        window = lines[max(0, idx - CHECK_WINDOW):idx + 1]
        if not any("FINELOG_CHECK(" in w for w in window):
            out.append(Violation(
                relpath, idx + 1, "page-memcpy",
                f"{m.group(1)} into a Page buffer without a FINELOG_CHECK "
                f"bounds assertion in the {CHECK_WINDOW} preceding lines"))
    return out


# --- metrics string keys ---------------------------------------------------

METRICS_CALL_RE = re.compile(
    r"\bmetrics[A-Za-z0-9_]*(?:\(\s*\))?\s*(?:\.|->)\s*(Add|Get)\s*\(")
PURE_LITERAL_RE = re.compile(r'^(?:"(?:[^"\\]|\\.)*"\s*)+$')


def check_metrics_string_key(relpath, text, stripped):
    out = []
    for m in METRICS_CALL_RE.finditer(stripped):
        open_paren = stripped.index("(", m.end() - 1)
        lineno = stripped.count("\n", 0, m.start()) + 1
        # Read the argument from the original text (strings are blanked in
        # `stripped`); offsets are identical.
        arg = extract_first_arg(text, open_paren).strip()
        if PURE_LITERAL_RE.match(arg):
            out.append(Violation(
                relpath, lineno, "metrics-string-key",
                f"string-literal metrics key {arg}; intern it as a Counter "
                "enum value (string keys are reserved for dynamic names)"))
    return out


# --- include hygiene -------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_include_hygiene(relpath, text, stripped):
    del stripped
    out = []
    lines = text.splitlines()
    if relpath.startswith("src" + os.sep) and relpath.endswith(".h"):
        rel_in_src = os.path.relpath(relpath, "src")
        expected = "FINELOG_" + re.sub(
            r"[^A-Za-z0-9]", "_", rel_in_src.upper()) + "_"
        guard_line = None
        for i, line in enumerate(lines):
            m = re.match(r"^\s*#\s*ifndef\s+(\w+)", line)
            if m:
                guard_line = (i, m.group(1))
                break
        if guard_line is None:
            out.append(Violation(
                relpath, 1, "include-hygiene",
                f"missing include guard #ifndef {expected}"))
        else:
            i, name = guard_line
            if name != expected:
                out.append(Violation(
                    relpath, i + 1, "include-hygiene",
                    f"include guard {name} should be {expected} "
                    "(FINELOG_<path>_H_)"))
            elif i + 1 >= len(lines) or not re.match(
                    r"^\s*#\s*define\s+" + re.escape(expected) + r"\s*$",
                    lines[i + 1]):
                out.append(Violation(
                    relpath, i + 2, "include-hygiene",
                    f"#define {expected} must immediately follow its "
                    "#ifndef"))
    for lineno, line in enumerate(lines, 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        inc = m.group(1)
        if inc.startswith("../") or "/../" in inc:
            out.append(Violation(
                relpath, lineno, "include-hygiene",
                f'include "{inc}" uses path traversal; include '
                "repo-root-relative paths"))
            continue
        top = inc.split("/", 1)[0]
        if "/" in inc and top not in TOP_LEVEL_INCLUDE_DIRS:
            out.append(Violation(
                relpath, lineno, "include-hygiene",
                f'include "{inc}" is not repo-root-relative '
                f"(unknown top-level dir {top!r})"))
    return out


# --- WouldBlockReason enum sweep -------------------------------------------

STATUS_HEADER_RELPATH = os.path.join("src", "common", "status.h")
STATUS_SOURCE_RELPATH = os.path.join("src", "common", "status.cc")
REASON_ENUM = "WouldBlockReason"
REASON_NAME_FN = "WouldBlockReasonName"

REASON_ENUM_RE = re.compile(
    r"enum\s+class\s+" + REASON_ENUM + r"\b[^{]*\{([^}]*)\}")
REASON_CASE_RE = re.compile(
    r"case\s+" + REASON_ENUM + r"\s*::\s*(k\w+)")


def check_reason_sweep(header_text, source_text, header_rel, source_rel):
    """Core of the would-block-sweep rule: every WouldBlockReason enumerator
    (kRecoveringPage, kZombieFenced, ...) must have a `case` in the
    WouldBlockReasonName table, and every case must name a live enumerator.
    A reason without a printable name ships unreadable Status strings; a
    stale case means the enum and its retry-policy surface drifted apart."""
    out = []
    stripped_header = strip_comments_and_strings(header_text)
    stripped_source = strip_comments_and_strings(source_text)
    m = REASON_ENUM_RE.search(stripped_header)
    if m is None:
        out.append(Violation(
            header_rel, 1, "would-block-sweep",
            f"could not parse `enum class {REASON_ENUM}`; the sweep rule "
            "is blind (fix the enum or this rule)"))
        return out
    enumerators = re.findall(r"\bk\w+", m.group(1))
    enum_line = header_text[:m.start()].count("\n") + 1
    if REASON_NAME_FN not in stripped_source:
        out.append(Violation(
            source_rel, 1, "would-block-sweep",
            f"no {REASON_NAME_FN}() definition found"))
        return out
    cases = set(REASON_CASE_RE.findall(stripped_source))
    for e in enumerators:
        if e not in cases:
            out.append(Violation(
                header_rel, enum_line, "would-block-sweep",
                f"{REASON_ENUM}::{e} has no case in {REASON_NAME_FN}() "
                f"({source_rel}); every reason must print a readable name"))
    for c in sorted(cases):
        if c not in enumerators:
            lineno = 1
            for i, line in enumerate(stripped_source.splitlines(), 1):
                if REASON_ENUM in line and c in line:
                    lineno = i
                    break
            out.append(Violation(
                source_rel, lineno, "would-block-sweep",
                f"{REASON_NAME_FN}() has a case for {REASON_ENUM}::{c} "
                f"which is not an enumerator in {header_rel}"))
    return out


def check_would_block_sweep(root):
    """Repo-level rule pairing src/common/status.h with status.cc."""
    header = os.path.join(root, STATUS_HEADER_RELPATH)
    source = os.path.join(root, STATUS_SOURCE_RELPATH)
    if not os.path.isfile(header) or not os.path.isfile(source):
        return [Violation(STATUS_HEADER_RELPATH, 1, "would-block-sweep",
                          "status.h/status.cc pair not found")]
    with open(header, encoding="utf-8") as fh:
        header_text = fh.read()
    with open(source, encoding="utf-8") as fh:
        source_text = fh.read()
    return check_reason_sweep(header_text, source_text,
                              STATUS_HEADER_RELPATH, STATUS_SOURCE_RELPATH)


# --- driver ----------------------------------------------------------------

def iter_files(root, dirs, exts):
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir.startswith(FIXTURE_DIR):
                continue
            for f in sorted(filenames):
                if os.path.splitext(f)[1] in exts:
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def lint_file(root, relpath, registry, determinism_only=False):
    with open(os.path.join(root, relpath), encoding="utf-8") as fh:
        text = fh.read()
    stripped = strip_comments_and_strings(text)
    out = check_determinism(relpath, text, stripped)
    out += check_scenario_helpers(relpath, text, stripped)
    if determinism_only:
        return out
    out += check_fail_points(relpath, text, stripped, registry)
    out += check_net_fail_points(relpath, text, stripped)
    out += check_liveness_fail_points(relpath, text, stripped)
    out += check_message_sizes(relpath, text, stripped)
    out += check_new_delete(relpath, text, stripped)
    out += check_page_memcpy(relpath, text, stripped)
    out += check_metrics_string_key(relpath, text, stripped)
    out += check_include_hygiene(relpath, text, stripped)
    return out


def run_lint(root):
    violations = []
    registry = {}
    src_files = set(iter_files(root, SRC_DIRS, {".h", ".cc"}))
    det_files = set(iter_files(root, DETERMINISM_DIRS,
                               {".h", ".cc", ".cpp"}))
    for relpath in sorted(det_files | src_files):
        violations.extend(lint_file(
            root, relpath, registry,
            determinism_only=relpath not in src_files))
    violations.extend(check_would_block_sweep(root))
    return violations


# --- self test -------------------------------------------------------------

# fixture file -> rule that must fire in it.
FIXTURES = {
    "bad_determinism.cc": "determinism",
    "bad_fail_point.cc": "fail-point",
    "bad_new_delete.cc": "raw-new-delete",
    "bad_page_memcpy.cc": "page-memcpy",
    "bad_include_guard.h": "include-hygiene",
    "bad_liveness_fail_point.cc": "liveness-fail-point",
    "bad_metrics_string.cc": "metrics-string-key",
    "bad_net_fail_point.cc": "net-fail-point",
    "bad_message_sizes.cc": "message-sizes",
    "bad_scenario_helpers.cc": "scenario-helpers",
}


def run_self_test(root):
    failures = []
    fixture_root = os.path.join(root, FIXTURE_DIR)
    for fname, rule in sorted(FIXTURES.items()):
        path = os.path.join(fixture_root, fname)
        if not os.path.isfile(path):
            failures.append(f"fixture missing: {path}")
            continue
        # Lint the fixture as if it lived under src/common/ (and under
        # tests/ for the test-only scenario-helpers rule).
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        stripped = strip_comments_and_strings(text)
        pseudo = os.path.join("src", "common", fname)
        registry = {}
        got = (check_determinism(pseudo, text, stripped)
               + check_fail_points(pseudo, text, stripped, registry)
               + check_net_fail_points(pseudo, text, stripped)
               + check_liveness_fail_points(pseudo, text, stripped)
               + check_message_sizes(pseudo, text, stripped)
               + check_new_delete(pseudo, text, stripped)
               + check_page_memcpy(pseudo, text, stripped)
               + check_metrics_string_key(pseudo, text, stripped)
               + check_include_hygiene(pseudo, text, stripped)
               + check_scenario_helpers(os.path.join("tests", fname), text,
                                        stripped))
        fired = {v.rule for v in got}
        if rule not in fired:
            failures.append(
                f"{fname}: expected rule '{rule}' to fire, got {sorted(fired)}")
        else:
            print(f"self-test ok: {fname} -> {rule}")
    # The would-block-sweep rule pairs status.h with status.cc; its fixture
    # carries both the enum and the name table in one file, checked against
    # itself, and must fire in both drift directions.
    sweep_fixture = os.path.join(fixture_root, "bad_reason_sweep.cc")
    if not os.path.isfile(sweep_fixture):
        failures.append(f"fixture missing: {sweep_fixture}")
    else:
        with open(sweep_fixture, encoding="utf-8") as fh:
            text = fh.read()
        pseudo = os.path.join(FIXTURE_DIR, "bad_reason_sweep.cc")
        got = check_reason_sweep(text, text, pseudo, pseudo)
        missing_case = any("has no case" in v.message for v in got)
        stale_case = any("not an enumerator" in v.message for v in got)
        if not (missing_case and stale_case):
            failures.append(
                "bad_reason_sweep.cc: expected would-block-sweep to fire on "
                f"both a missing case and a stale case, got {len(got)} "
                "violation(s)")
        else:
            print("self-test ok: bad_reason_sweep.cc -> would-block-sweep")
    # The real tree must be clean, or the lint gate is already red.
    tree = run_lint(root)
    for v in tree:
        failures.append(f"tree not clean: {v}")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test passed ({len(FIXTURES)} fixtures, tree clean)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that each rule fires on its seeded "
                             "bad fixture and that the tree is clean")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return run_self_test(root)
    violations = run_lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"finelog_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("finelog_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
