#!/usr/bin/env python3
"""finelog_check: the repo's static checker (DESIGN.md sections 11 and 16).

Every file is read and stripped of comments and string contents once. Two
kinds of rule, held in one registry, then run over that stripped text:
file rules look at one file at a time, and program rules look at one
whole-program model -- function definitions with ordered body events (calls
and state touches), class fields, wire structs and the FINELOG_*
annotations from src/common/annotations.h -- parsed from the same text.

File rules
----------
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
                   It pairs two files, so it runs over the program model.
  scenario-helpers the fault-scenario machinery lives in tests/scenario.*
                   only (DESIGN.md sections 10 and 13): no other test file
                   defines RunFingerprint, ReadFile, ProbeRead,
                   AppendSummary or RunSeededWorkload, or runs its own
                   crash-point loop (arms a fault with ArmGlobalHit).
                   Sweeps grew one copy of these per file before the
                   runner existed.

Program rules
-------------
  wal-before-mutate      Any function calling a page mutator (a function
                         annotated FINELOG_MUTATES_PAGE; the Page primitives
                         in storage/page.h are the annotated roots) must
                         itself append a log record covering the mutation
                         (Client::AppendLog / Client::AppendTxnLog /
                         LogManager::Append /
                         Server::AppendMembershipRecord), or push the
                         obligation to its callers by being
                         FINELOG_MUTATES_PAGE itself, or be a declared
                         FINELOG_REPLAY_PATH("reason") (recovery replay,
                         merge/install of already-logged images, bootstrap).
  admission-before-state For every non-Rec server request (the structs
                         AnyServerCall lists in src/net/endpoints.h), the
                         prologue Server::Dispatch followed by that request's
                         handler Server::Handle(const wire::X&) must reach
                         LivenessAdmission() before any protected server
                         state (glm_, dct_, pool_, log_, token_holder_, ...)
                         is touched -- interprocedurally: helper methods are
                         expanded in call order. (crashed_ and metrics_/rpc_/
                         channel_ are exempt: lifecycle flag and accounting
                         wiring, not protocol state.) The recovery plane
                         (Rec*) is deliberately unfenced -- crash recovery is
                         how a zombie rejoins.
  mastership-fence       For every non-Rec server request, the prologue must
                         reach MastershipAdmission() (the hot-standby epoch
                         fence, DESIGN.md sec. 19) before LivenessAdmission()
                         -- interprocedurally, like admission-before-state.
                         A deposed primary that consulted per-client
                         liveness first could still grant locks or admit
                         state changes after the standby fenced its epoch.
  recovery-guard         For every non-Rec server request whose prologue plus
                         handler reaches the buffer pool, EnsurePageRecovered()
                         must run first -- after the admission fence,
                         expanded interprocedurally like
                         admission-before-state -- so instant-restart
                         admission (DESIGN.md sec. 18) cannot serve a page
                         whose lazy repair has not run. Pure lock/lease/
                         heartbeat handlers that never touch the page plane
                         are exempt by construction.
  prologue-only          Handlers (Server::Handle overloads) are called only
                         from the prologue Server::Dispatch, so no path
                         reaches protocol logic around the fences.
  rec-plane-flag         Every wire struct's recovery_plane flag matches its
                         name: set exactly on the Rec-prefixed exchanges, so
                         the prologue fences (and the fault model exempts)
                         the plane the name promises.
  rpc-chokepoint         Only src/net/ does message accounting. Outside it,
                         direct Channel::Count / Channel::CountBatch calls
                         are banned at the call-graph level (comments,
                         strings and macro names cannot fool it), and so is
                         any CallOptions or RpcReply name (src/net/rpc.h):
                         message types and wire sizes are defined with the
                         request structs in src/net/endpoints.h, so no
                         endpoint body can hand-compute a message size or
                         pick its own accounting options.
  per-page-recovery-scan A client's recovery-plane handler (a Client::
                         HandleRec* method) reads the log through
                         LogManager::ScanPage, never a whole-log
                         LogManager::Scan: server-restart repair reads only
                         the repaired page's records (DESIGN.md sec. 18).
  shared-state-annotations
                         Every non-static data member of a class marked
                         FINELOG_SHARED_STATE_CLASS must carry
                         FINELOG_GUARDED_BY / FINELOG_PT_GUARDED_BY or an
                         explicit FINELOG_UNGUARDED("reason"); the SimMutex
                         capability member (mu_) is the one exemption. The
                         core shared classes (Server, GlobalLockManager,
                         LivenessTable, LogManager, Client) must be marked.

Frontend
--------
A tokenizer + scope parser over the comment/string stripper builds the
program model, driven by the repo conventions the file rules already
enforce (trailing-underscore members, CamelCase methods, repo-root-relative
includes). It needs nothing beyond Python.

Usage
-----
  tools/finelog_check.py [--root DIR]   check the tree (exit 1 on violations)
  tools/finelog_check.py --self-test    run every rule against the seeded bad
                                        fixtures in tests/check_fixtures,
                                        assert each fixture fires its rule and
                                        every rule has a fixture, and require
                                        the tree to be clean
"""

import argparse
import functools
import os
import re
import sys

SRC_DIR = "src"
# Determinism matters wherever workloads run, not just in src/.
CHECKED_DIRS = ["src", "tests", "bench", "examples"]
SOURCE_EXTS = {".h", ".cc", ".cpp"}
FIXTURE_DIR = os.path.join("tests", "check_fixtures")
NET_DIR = os.path.join("src", "net") + os.sep


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line structure
    (and preserving string literals' *positions* as spaces) so that line
    numbers and regex column logic stay valid."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # Unterminated; bail to code to stay line-stable.
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class Source:
    """One file as every rule sees it: its repo-relative path, its text, and
    the text with comments and string contents blanked (same offsets)."""

    def __init__(self, relpath, text):
        self.relpath = relpath
        self.text = text
        self.stripped = strip_comments_and_strings(text)


# ==========================================================================
# File rules: fn(src, seen) over one Source. `seen` is state shared by one
# run's files (the fail-point uniqueness registry).
# ==========================================================================

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


def check_determinism(src, seen):
    del seen
    out = []
    if src.relpath in RNG_ALLOWLIST:
        return out
    for lineno, line in enumerate(src.stripped.splitlines(), 1):
        m = DETERMINISM_RE.search(line)
        if m:
            what = m.group(1) or "std::random_device"
            out.append(Violation(
                src.relpath, lineno, "determinism",
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


def check_fail_points(src, seen):
    relpath, text, stripped = src.relpath, src.text, src.stripped
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
        prior = seen.get(arg_norm)
        if prior is not None:
            out.append(Violation(
                relpath, lineno, "fail-point",
                f"duplicate fail point {arg_norm!r} (first used at "
                f"{prior[0]}:{prior[1]}); every site must be unique"))
        else:
            seen[arg_norm] = (relpath, lineno)
    return out


# --- literal fail-point grammars (net-fail-point, liveness-fail-point) -----

# (prefix, rule, grammar, what, shape). Any string literal that starts with
# the prefix and is shaped like a fail point (>= 3 dot segments) must match
# the grammar; two-segment literals are metrics counter names and exempt.
# The net grammar also accepts prefix fragments ending in "." (composed with
# a ".fault" suffix).
LITERAL_GRAMMARS = [
    ("net.", "net-fail-point",
     re.compile(r"^net\.(.*\.|(client|server)\.[a-z][a-z0-9_]*"
                r"\.(drop|dup|delay|reorder))$"),
     "wire", "net.<side>.<endpoint>.<fault> with side in {client,server} "
     "and fault in {drop,dup,delay,reorder}"),
    ("liveness.", "liveness-fail-point",
     re.compile(r"^liveness\.(server|client)\.[a-z][a-z0-9_]*$"),
     "liveness", "liveness.<node>.<op> with node in {server,client} "
     "(lower_snake op)"),
]


def check_literal_grammars(src, seen):
    del seen
    out = []
    # Locate literal spans in `stripped` (comments are blanked there, so
    # quoted examples in prose are skipped) and read the content from the
    # original text at identical offsets.
    for m in re.finditer(r'"[^"\n]*"', src.stripped):
        lit = src.text[m.start() + 1:m.end() - 1]
        for prefix, rule, grammar, what, shape in LITERAL_GRAMMARS:
            if lit.startswith(prefix) and lit.count(".") >= 2 \
                    and not grammar.match(lit):
                lineno = src.text.count("\n", 0, m.start()) + 1
                out.append(Violation(
                    src.relpath, lineno, rule,
                    f'{what} fail point "{lit}" does not match {shape}'))
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


def check_scenario_helpers(src, seen):
    del seen
    relpath, stripped = src.relpath, src.stripped
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
SMART_NEW_RE = re.compile(r"(unique_ptr|shared_ptr)\s*<[^;]*>\s*\(\s*new\b")


def check_new_delete(src, seen):
    del seen
    out = []
    lines = src.stripped.splitlines()
    for lineno, line in enumerate(lines, 1):
        # The factory idiom may wrap: join with the previous line so
        # `unique_ptr<T>(\n    new T(...))` is recognized.
        joined = (lines[lineno - 2] + " " if lineno >= 2 else "") + line
        if NEW_RE.search(line) and not SMART_NEW_RE.search(joined):
            out.append(Violation(
                src.relpath, lineno, "raw-new-delete",
                "raw `new` outside an owning smart-pointer expression"))
        if re.search(r"=\s*delete\b", line):
            continue  # Deleted special member.
        if re.search(r"\bdelete\b\s*(\[\s*\])?\s*[A-Za-z_(*]", line):
            out.append(Violation(
                src.relpath, lineno, "raw-new-delete",
                "raw `delete`; ownership must go through smart pointers"))
    return out


# --- memcpy into Page ------------------------------------------------------

MEM_WRITE_RE = re.compile(r"\b(?:std::)?(memcpy|memset)\s*\(")
CHECK_WINDOW = 3


def check_page_memcpy(src, seen):
    del seen
    out = []
    lines = src.stripped.splitlines()
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
                src.relpath, idx + 1, "page-memcpy",
                f"{m.group(1)} into a Page buffer without a FINELOG_CHECK "
                f"bounds assertion in the {CHECK_WINDOW} preceding lines"))
    return out


# --- metrics string keys ---------------------------------------------------

METRICS_CALL_RE = re.compile(
    r"\bmetrics[A-Za-z0-9_]*(?:\(\s*\))?\s*(?:\.|->)\s*(Add|Get)\s*\(")
PURE_LITERAL_RE = re.compile(r'^(?:"(?:[^"\\]|\\.)*"\s*)+$')


def check_metrics_string_key(src, seen):
    del seen
    out = []
    for m in METRICS_CALL_RE.finditer(src.stripped):
        open_paren = src.stripped.index("(", m.end() - 1)
        lineno = src.stripped.count("\n", 0, m.start()) + 1
        # Read the argument from the original text (strings are blanked in
        # `stripped`); offsets are identical.
        arg = extract_first_arg(src.text, open_paren).strip()
        if PURE_LITERAL_RE.match(arg):
            out.append(Violation(
                src.relpath, lineno, "metrics-string-key",
                f"string-literal metrics key {arg}; intern it as a Counter "
                "enum value (string keys are reserved for dynamic names)"))
    return out


# --- include hygiene -------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_include_hygiene(src, seen):
    del seen
    relpath = src.relpath
    out = []
    lines = src.text.splitlines()
    if relpath.startswith(SRC_DIR + os.sep) and relpath.endswith(".h"):
        rel_in_src = os.path.relpath(relpath, SRC_DIR)
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


# ==========================================================================
# Program model
# ==========================================================================

# Names whose annotated-function registry drives wal-before-mutate.
ANN_MUTATES = "FINELOG_MUTATES_PAGE"
ANN_REPLAY = "FINELOG_REPLAY_PATH"
ANN_MARKED_CLASS = "FINELOG_SHARED_STATE_CLASS"
FIELD_ANNS_OK = {"FINELOG_GUARDED_BY", "FINELOG_PT_GUARDED_BY",
                 "FINELOG_UNGUARDED"}
FUNC_ANNS = {ANN_MUTATES, ANN_REPLAY, "FINELOG_REQUIRES", "FINELOG_ACQUIRE",
             "FINELOG_RELEASE", "FINELOG_EXCLUDES",
             "FINELOG_NO_THREAD_SAFETY_ANALYSIS"}

# Log-append entry points recognized as discharging the WAL obligation.
LOG_APPEND_CALLS = {"Append", "AppendLog", "AppendTxnLog",
                    "AppendMembershipRecord"}

# Server state that must not be touched before LivenessAdmission in an
# endpoint body. `crashed_` (harness lifecycle flag) and metrics_/rpc_/
# channel_ (accounting wiring; rpc_ IS the chokepoint the request arrived
# through) are deliberately absent.
PROTECTED_STATE = {
    "glm_", "dct_", "pool_", "space_map_", "log_", "disk_", "token_holder_",
    "crashed_clients_", "page_rec_", "rec_priority_", "deferred_recoveries_",
    "dct_authoritative_", "clients_", "liveness_",
}
ADMISSION_CALL = "LivenessAdmission"
# Hot standby (DESIGN.md sec. 19): the epoch fence. A deposed primary must
# refuse data-plane work *before* consulting per-client liveness, or a stale
# master could keep granting locks after the standby took over. Deliberately
# NOT in PROTECTED_STATE: MastershipAdmission runs before LivenessAdmission
# and touches only the mastership fields, which are fenced by construction.
MASTERSHIP_CALL = "MastershipAdmission"
# Instant restart (DESIGN.md sec. 18): any endpoint that reaches the page
# pool must first pass the per-page recovery guard, or a request admitted
# right after restart could read a page whose lazy repair has not run.
# EnsurePageRecovered repairs on demand; PageRecoveryPending is the
# accepted read-only form for paths that deliberately skip unrecovered
# pages instead of repairing them (e.g. DCT retirement on lock release).
GUARD_CALL = "EnsurePageRecovered"
GUARD_CALLS = {GUARD_CALL, "PageRecoveryPending"}
PAGE_PLANE_STATE = {"pool_"}
ENDPOINT_IMPL = "Server"
PROLOGUE = "Dispatch"
HANDLER = "Handle"
WIRE_NAMESPACE = "wire"
SERVER_CALL_TEMPLATE = "ServerCall"
RECOVERY_PLANE_PREFIX = "Rec"
MIN_ENDPOINTS = 11  # The non-Rec data plane; guards request-list parse rot.

CHOKEPOINT_METHODS = {"Count", "CountBatch"}
RPC_INTERNALS_RE = re.compile(r"\b(CallOptions|RpcReply)\b")

CLIENT_CLASS = "Client"
CLIENT_REC_HANDLER_PREFIX = "HandleRec"
WHOLE_LOG_SCAN = "Scan"

CAPABILITY_FIELD = "mu_"
REQUIRED_MARKED_CLASSES = {
    "Server", "GlobalLockManager", "LivenessTable", "LogManager", "Client",
}

STATUS_HEADER_RELPATH = os.path.join("src", "common", "status.h")
STATUS_SOURCE_RELPATH = os.path.join("src", "common", "status.cc")
REASON_ENUM = "WouldBlockReason"
REASON_NAME_FN = "WouldBlockReasonName"

CPP_KEYWORDS = {
    "if", "while", "for", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "case", "do", "else", "alignof", "decltype", "assert",
    "static_assert", "noexcept", "defined",
}


class Function:
    """One function definition with its ordered body events."""

    def __init__(self, qname, name, cls, path, line):
        self.qname = qname          # "Server::Dispatch" or "ShipBytes"
        self.name = name            # unqualified
        self.cls = cls              # class name or None
        self.path = path
        self.line = line
        self.annotations = set()    # FINELOG_* markers on the definition
        self.calls = []             # [(callee_name, order, line)]
        self.state_idents = []      # [(ident, order, line)] PROTECTED_STATE

    def call_names(self):
        return {c[0] for c in self.calls}


class ClassInfo:
    def __init__(self, name, path, line):
        self.name = name
        self.path = path
        self.line = line
        self.marked = False                 # FINELOG_SHARED_STATE_CLASS
        self.fields = []                    # [(name, line, set(annotations))]


class WireStruct:
    """One exchange definition in namespace wire (src/net/endpoints.h)."""

    def __init__(self, name, path, line):
        self.name = name
        self.path = path
        self.line = line
        self.has_spec = False
        self.recovery_plane = False


class Program:
    """The src/ files of one run as one model. `strict` is on for the tree
    and off for a fixture, which is a mini-program lacking the tree-level
    landmarks (the request-list floor, the core shared classes, the
    status.h/status.cc pair)."""

    def __init__(self, strict):
        self.strict = strict
        self.sources = {}       # relpath -> Source
        self.functions = {}     # qname -> Function (first definition wins)
        self.classes = {}       # name -> ClassInfo
        self.wire_structs = {}  # name -> WireStruct
        self.server_requests = []  # wire struct names AnyServerCall lists
        self.mutators = set()   # names annotated FINELOG_MUTATES_PAGE
        self.replay_decls = set()  # names annotated at declaration site

    def recovery_plane(self, name):
        ws = self.wire_structs.get(name)
        return ws is not None and ws.recovery_plane

    def add_function(self, fn):
        self.functions.setdefault(fn.qname, fn)

    @functools.cached_property
    def prologue(self):
        """prologue_instances(self), shared by the per-request rules."""
        return prologue_instances(self)


# --------------------------------------------------------------------------
# Frontend: tokenizer
# --------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\d[\w.]*"
    r"|::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|"
    r"&=|\|=|\^=|\.\.\.|"
    r"|[{}()\[\];:,<>=+\-*/&|!~^.?%#\"']")


def drop_preprocessor(stripped):
    """Blanks preprocessor directive lines (keeps newlines) so #include /
    #define bodies don't masquerade as declarations."""
    out_lines = []
    cont = False
    for line in stripped.split("\n"):
        is_pp = cont or line.lstrip().startswith("#")
        cont = is_pp and line.rstrip().endswith("\\")
        out_lines.append(" " * len(line) if is_pp else line)
    return "\n".join(out_lines)


def tokenize(stripped):
    """Returns [(token_text, offset)] over pre-stripped text."""
    toks = []
    for m in TOKEN_RE.finditer(stripped):
        t = m.group(0)
        if t and not t.isspace():
            toks.append((t, m.start()))
    return toks


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def wire_type_at(toks, k):
    """X when toks[k:k+3] spell wire::X, else None (toks: token strings)."""
    if k + 2 < len(toks) and toks[k] == WIRE_NAMESPACE \
            and toks[k + 1] == "::" \
            and re.match(r"[A-Za-z_]\w*$", toks[k + 2]):
        return toks[k + 2]
    return None


def first_wire_type(toks):
    for k in range(len(toks)):
        x = wire_type_at(toks, k)
        if x is not None:
            return x
    return None


def handler_key(wire_type):
    """Handler overloads are keyed by their request type:
    Handle(wire::LockObject). An unresolved call stays plain `Handle`."""
    return f"{HANDLER}({WIRE_NAMESPACE}::{wire_type})" if wire_type \
        else HANDLER


def strip_template_prefix(head_toks):
    """Drops a leading `template <...>` from a declaration head."""
    if not head_toks or head_toks[0] != "template" or len(head_toks) < 2 \
            or head_toks[1] != "<":
        return head_toks
    depth = 0
    for k in range(1, len(head_toks)):
        if head_toks[k] == "<":
            depth += 1
        elif head_toks[k] == ">":
            depth -= 1
            if depth == 0:
                return head_toks[k + 1:]
        elif head_toks[k] == ">>":
            depth -= 2
            if depth <= 0:
                return head_toks[k + 1:]
    return head_toks


def match_brace(tokens, open_idx):
    """Index of the '}' matching tokens[open_idx] == '{' (len(tokens) if
    unbalanced)."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i][0]
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


# --------------------------------------------------------------------------
# Frontend: per-file parse
# --------------------------------------------------------------------------

def scan_annotation_registry(tokens, program):
    """FINELOG_MUTATES_PAGE / FINELOG_REPLAY_PATH(...) followed by a function
    declaration or definition register that function name globally."""
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t in (ANN_MUTATES, ANN_REPLAY):
            j = i + 1
            # Skip the annotation's own (reason) argument list, if any.
            if t == ANN_REPLAY and j < n and tokens[j][0] == "(":
                depth = 0
                while j < n:
                    if tokens[j][0] == "(":
                        depth += 1
                    elif tokens[j][0] == ")":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    j += 1
            # First identifier followed by '(' names the annotated function.
            while j < n - 1:
                tj, tj1 = tokens[j][0], tokens[j + 1][0]
                if tj in (";", "{", "}"):
                    break
                if re.match(r"[A-Za-z_]\w*$", tj) and tj1 == "(" \
                        and tj not in CPP_KEYWORDS:
                    if tj == HANDLER:
                        params = []
                        for tk, _ in tokens[j + 1:]:
                            if tk == ")":
                                break
                            params.append(tk)
                        tj = handler_key(first_wire_type(params))
                    if t == ANN_MUTATES:
                        program.mutators.add(tj)
                    else:
                        program.replay_decls.add(tj)
                    break
                j += 1
        i += 1


def parse_class_body(tokens, open_idx, close_idx, cls, text):
    """Collects fields (trailing-underscore members at depth 0) and virtual
    method names from a class body token span."""
    i = open_idx + 1
    stmt = []
    while i < close_idx:
        t, off = tokens[i]
        if t == "{":
            # Inline method body, nested type body, or brace initializer:
            # skip the block wholesale; a following ';' continues/ends the
            # statement either way.
            end = match_brace(tokens, i)
            stmt.append(("{}", off))
            i = end + 1
            if i < close_idx and tokens[i][0] == ";":
                finish_member_statement(stmt, cls, text)
                stmt = []
                i += 1
            else:
                finish_member_statement(stmt, cls, text)
                stmt = []
            continue
        if t == ";":
            finish_member_statement(stmt, cls, text)
            stmt = []
            i += 1
            continue
        if t in ("public", "private", "protected") and i + 1 < close_idx \
                and tokens[i + 1][0] == ":":
            stmt = []
            i += 2
            continue
        stmt.append((t, off))
        i += 1


FIELD_NAME_RE = re.compile(r"^[a-z]\w*_$")


def finish_member_statement(stmt, cls, text):
    if not stmt:
        return
    toks = [t for t, _ in stmt]
    if "static" in toks or "using" in toks or "typedef" in toks \
            or "friend" in toks:
        return
    # Field: trailing-underscore identifier at paren depth 0 whose next
    # token closes/initializes the declarator.
    depth = 0
    for k, (t, off) in enumerate(stmt):
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        elif depth == 0 and FIELD_NAME_RE.match(t):
            nxt = toks[k + 1] if k + 1 < len(toks) else ";"
            if nxt in (";", "=", "{}") or nxt in FIELD_ANNS_OK:
                anns = {a for a in toks[k + 1:] if a in FIELD_ANNS_OK}
                cls.fields.append((t, line_of(text, off), anns))
                return
            return  # e.g. a constructor's member-init list: not a field.


def head_is_function_signature(head_toks):
    head_toks = strip_template_prefix(head_toks)
    if not head_toks:
        return False
    first = head_toks[0]
    if first in ("namespace", "class", "struct", "enum", "union", "using",
                 "extern", "template"):
        return False
    if "(" not in head_toks or ")" not in head_toks:
        return False
    # Reject `X y = {...}` style initializers.
    depth = 0
    for t in head_toks:
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        elif t == "=" and depth == 0:
            return False
    return head_toks[-1] in (")", "const", "noexcept", "override", "final")


def strip_annotation_groups(head_toks):
    """Drops FINELOG_* annotation tokens and their (arg) groups so the
    parameter-list '(' can be located."""
    out = []
    i = 0
    while i < len(head_toks):
        t = head_toks[i]
        if t in FUNC_ANNS or t in FIELD_ANNS_OK:
            i += 1
            if i < len(head_toks) and head_toks[i] == "(":
                depth = 0
                while i < len(head_toks):
                    if head_toks[i] == "(":
                        depth += 1
                    elif head_toks[i] == ")":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
            continue
        out.append(t)
        i += 1
    return out


def signature_name(head_toks):
    """(qname, name, class) from a signature head token list."""
    head_toks = strip_annotation_groups(strip_template_prefix(head_toks))
    if "(" not in head_toks:
        return None
    k = head_toks.index("(")
    if k == 0:
        return None
    name = head_toks[k - 1]
    if not re.match(r"[A-Za-z_]\w*$", name) or name in CPP_KEYWORDS:
        return None
    cls = None
    base = k - 1
    if base >= 1 and head_toks[base - 1] == "~":
        name = "~" + name
        base -= 1
    if base >= 2 and head_toks[base - 1] == "::" \
            and re.match(r"[A-Za-z_]\w*$", head_toks[base - 2]):
        cls = head_toks[base - 2]
    if name == HANDLER:
        name = handler_key(first_wire_type(head_toks[k:]))
    qname = f"{cls}::{name}" if cls else name
    return qname, name, cls


def handler_call_type(toks, paren_idx):
    """The request type a `Handle(...)` call serves: a wire::X named in its
    arguments."""
    depth = 0
    args = []
    for k in range(paren_idx, len(toks)):
        if toks[k] == "(":
            depth += 1
        elif toks[k] == ")":
            depth -= 1
            if depth == 0:
                break
        args.append(toks[k])
    return first_wire_type(args)


def collect_body_events(tokens, open_idx, close_idx, fn, text):
    order = 0
    toks = [t for t, _ in tokens[:close_idx]]
    for i in range(open_idx + 1, close_idx):
        t, off = tokens[i]
        if not re.match(r"[A-Za-z_]\w*$", t):
            continue
        order += 1
        if i + 1 < close_idx and tokens[i + 1][0] == "(" \
                and t not in CPP_KEYWORDS:
            name = t
            if t == HANDLER:
                name = handler_key(handler_call_type(toks, i + 1))
            fn.calls.append((name, order, line_of(text, off)))
        if t in PROTECTED_STATE:
            fn.state_idents.append((t, order, line_of(text, off)))


def parse_source(src, program):
    relpath, text = src.relpath, src.text
    program.sources[relpath] = src
    stripped = drop_preprocessor(src.stripped)
    tokens = tokenize(stripped)
    scan_annotation_registry(tokens, program)

    toks = [tok for tok, _ in tokens]
    for k in range(len(toks) - 1):
        if toks[k] == SERVER_CALL_TEMPLATE and toks[k + 1] == "<":
            x = wire_type_at(toks, k + 2)
            if x is not None and x not in program.server_requests:
                program.server_requests.append(x)

    i = 0
    n = len(tokens)
    stmt_start = 0
    # Kinds of currently-open '{' regions, innermost last, and the names of
    # the open namespaces.
    region = []
    namespaces = []
    while i < n:
        t, _ = tokens[i]
        if t == "{":
            head = [tok for tok, _ in tokens[stmt_start:i]]
            kind = "block"
            outer = region[-1] if region else "file"
            if head and head[0] == "namespace":
                kind = "namespace"
                namespaces.append(head[1] if len(head) > 1 else "")
            elif head and head[0] in ("class", "struct") and len(head) >= 2 \
                    and outer in ("file", "namespace"):
                kind = "class"
                # Name: last identifier before ':' (bases) or end of head.
                name_zone = head[1:]
                if ":" in name_zone:
                    name_zone = name_zone[:name_zone.index(":")]
                idents = [x for x in name_zone
                          if re.match(r"[A-Za-z_]\w*$", x)
                          and x not in ("final",)]
                if idents and namespaces and namespaces[-1] == WIRE_NAMESPACE:
                    end = match_brace(tokens, i)
                    program.wire_structs.setdefault(
                        idents[-1],
                        parse_wire_struct(idents[-1], toks[i:end], relpath,
                                          line_of(text, tokens[i][1])))
                elif idents:
                    cls = ClassInfo(idents[-1], relpath,
                                    line_of(text, tokens[i][1]))
                    cls.marked = ANN_MARKED_CLASS in head
                    end = match_brace(tokens, i)
                    parse_class_body(tokens, i, end, cls, text)
                    program.classes.setdefault(cls.name, cls)
            elif outer in ("file", "namespace") \
                    and head_is_function_signature(head):
                sig = signature_name(head)
                if sig is not None:
                    qname, name, cls_name = sig
                    fn = Function(qname, name, cls_name, relpath,
                                  line_of(text, tokens[i][1]))
                    fn.annotations = {a for a in head if a in FUNC_ANNS}
                    end = match_brace(tokens, i)
                    collect_body_events(tokens, i, end, fn, text)
                    program.add_function(fn)
                    kind = "function"
            region.append(kind)
            stmt_start = i + 1
        elif t == "}":
            if region and region.pop() == "namespace":
                namespaces.pop()
            stmt_start = i + 1
        elif t == ";":
            stmt_start = i + 1
        i += 1


def parse_wire_struct(name, body, relpath, line):
    ws = WireStruct(name, relpath, line)
    ws.has_spec = "kSpec" in body
    for k in range(len(body) - 2):
        if body[k] == "recovery_plane" and body[k + 1] == "=":
            ws.recovery_plane = body[k + 2] == "true"
    return ws


# ==========================================================================
# Program rules: fn(program) over the whole-program model.
# ==========================================================================

def check_wal_before_mutate(program):
    out = []
    for fn in program.functions.values():
        if ANN_MUTATES in fn.annotations or fn.name in program.mutators:
            continue
        if ANN_REPLAY in fn.annotations or fn.name in program.replay_decls:
            continue
        mut_calls = [c for c in fn.calls if c[0] in program.mutators]
        if not mut_calls:
            continue
        if fn.call_names() & LOG_APPEND_CALLS:
            continue
        name, _order, line = mut_calls[0]
        out.append(Violation(
            fn.path, line, "wal-before-mutate",
            f"{fn.qname} mutates page contents via {name}() but appends no "
            "covering log record; add an AppendLog/Append call, mark the "
            f"function {ANN_MUTATES} to move the obligation to its callers, "
            f'or declare {ANN_REPLAY}("reason") if this is a recovery/merge/'
            "bootstrap plane"))
    return out


def first_admission_event(program, fn, stack=None, memo=None):
    """'admit', 'touch', or None: the first protocol-relevant event reached
    from `fn`, expanding same-class helper calls in body order."""
    if memo is None:
        memo = {}
    if stack is None:
        stack = set()
    if fn.qname in memo:
        return memo[fn.qname]
    if fn.qname in stack:
        return None
    stack.add(fn.qname)
    events = sorted(
        [(order, "call", name, line) for name, order, line in fn.calls]
        + [(order, "touch", ident, line)
           for ident, order, line in fn.state_idents])
    result = None
    for _order, kind, name, _line in events:
        if kind == "touch":
            result = ("touch", name, _line)
            break
        if name == ADMISSION_CALL:
            result = ("admit", name, _line)
            break
        callee = program.functions.get(f"{ENDPOINT_IMPL}::{name}")
        if callee is not None:
            sub = first_admission_event(program, callee, stack, memo)
            if sub is not None:
                result = sub
                break
    stack.discard(fn.qname)
    memo[fn.qname] = result
    return result


def prologue_instances(program):
    """The prologue as each non-Rec server request runs it: a copy of
    Server::Dispatch whose `Handle(request)` call is bound to that request's
    handler. Returns ([(request, Function)], violations) -- the violations
    report a missing prologue, handler or request list."""
    out = []
    strict = program.strict
    requests = [r for r in program.server_requests
                if not program.recovery_plane(r)]
    where = next((program.wire_structs[r] for r in program.server_requests
                  if r in program.wire_structs), None)
    where = (where.path, where.line) if where else ("src/net/endpoints.h", 1)
    if strict and len(requests) < MIN_ENDPOINTS:
        out.append(Violation(
            where[0], where[1], "admission-before-state",
            f"only {len(requests)} non-Rec server requests parsed from "
            f"AnyServerCall (expected >= {MIN_ENDPOINTS}); the request list "
            "parse is broken or the data plane shrank"))
    prologue = program.functions.get(f"{ENDPOINT_IMPL}::{PROLOGUE}")
    if prologue is None:
        if requests:
            out.append(Violation(
                where[0], where[1], "admission-before-state",
                f"no {ENDPOINT_IMPL}::{PROLOGUE} prologue found for the "
                "server requests"))
        return [], out
    if HANDLER not in prologue.call_names():
        out.append(Violation(
            prologue.path, prologue.line, "admission-before-state",
            f"{ENDPOINT_IMPL}::{PROLOGUE} never calls {HANDLER}(); the "
            "request handlers are not reached through the prologue"))
    instances = []
    for req in requests:
        key = handler_key(req)
        if f"{ENDPOINT_IMPL}::{key}" not in program.functions:
            if strict:
                out.append(Violation(
                    where[0], where[1], "admission-before-state",
                    f"no definition found for handler "
                    f"{ENDPOINT_IMPL}::{key}"))
            continue
        inst = Function(f"{ENDPOINT_IMPL}::{PROLOGUE}<{req}>", PROLOGUE,
                        ENDPOINT_IMPL, prologue.path, prologue.line)
        inst.calls = [(key if c == HANDLER else c, o, line)
                      for c, o, line in prologue.calls]
        inst.state_idents = list(prologue.state_idents)
        instances.append((req, inst))
    return instances, out


def check_admission_before_state(program):
    instances, out = program.prologue
    out = list(out)
    memo = {}
    for req, fn in instances:
        ev = first_admission_event(program, fn, memo=memo)
        if ev is None:
            out.append(Violation(
                fn.path, fn.line, "admission-before-state",
                f"request wire::{req} never reaches {ADMISSION_CALL}() "
                f"through {ENDPOINT_IMPL}::{PROLOGUE}; zombies are not "
                "fenced here"))
        elif ev[0] == "touch":
            out.append(Violation(
                fn.path, ev[2], "admission-before-state",
                f"request wire::{req} touches protected state `{ev[1]}` "
                f"before {ADMISSION_CALL}(); a presumed-dead client could "
                "mutate server state through this path"))
    return out


def first_fence_event(program, fn, stack=None, memo=None):
    """'fence' (MastershipAdmission) or 'admit' (LivenessAdmission):
    whichever a path from `fn` reaches first, expanding same-class helper
    calls in body order. None when neither is reachable."""
    if memo is None:
        memo = {}
    if stack is None:
        stack = set()
    if fn.qname in memo:
        return memo[fn.qname]
    if fn.qname in stack:
        return None
    stack.add(fn.qname)
    result = None
    for name, _order, line in sorted(fn.calls, key=lambda c: c[1]):
        if name == MASTERSHIP_CALL:
            result = ("fence", name, line)
            break
        if name == ADMISSION_CALL:
            result = ("admit", name, line)
            break
        callee = program.functions.get(f"{ENDPOINT_IMPL}::{name}")
        if callee is not None:
            sub = first_fence_event(program, callee, stack, memo)
            if sub is not None:
                result = sub
                break
    stack.discard(fn.qname)
    memo[fn.qname] = result
    return result


def check_mastership_fence(program):
    """mastership-fence: every standby-reachable (non-Rec) request must
    check mastership before per-client liveness. The recovery plane stays
    unfenced for the same reason it skips the liveness fence: it is how a
    client rejoins, and a takeover's own Restart() drives it. Requests that
    never reach LivenessAdmission at all are admission-before-state's
    problem, not this rule's."""
    out = []
    memo = {}
    for req, fn in program.prologue[0]:
        ev = first_fence_event(program, fn, memo=memo)
        if ev is not None and ev[0] == "admit":
            out.append(Violation(
                fn.path, ev[2], "mastership-fence",
                f"request wire::{req} reaches {ADMISSION_CALL}() without "
                f"{MASTERSHIP_CALL}() first; a deposed primary could keep "
                "serving it after the standby fenced its epoch"))
    return out


def first_unguarded_page_touch(program, fn, stack, state):
    """First PAGE_PLANE_STATE touch reached from `fn` (expanding same-class
    helpers in body order) before GUARD_CALL has run. `state` carries the
    admitted/guarded flags across the expansion. Returns a Violation-ready
    (path, line, message-kind) tuple or None."""
    if fn.qname in stack:
        return None
    stack.add(fn.qname)
    events = sorted(
        [(order, "call", name, line) for name, order, line in fn.calls]
        + [(order, "touch", ident, line)
           for ident, order, line in fn.state_idents])
    result = None
    for _order, kind, name, line in events:
        if kind == "call":
            if name == ADMISSION_CALL:
                state["admitted"] = True
                continue
            if name in GUARD_CALLS:
                if not state["admitted"]:
                    result = (fn.path, line, "guard-before-admission")
                    break
                state["guarded"] = True
                continue
            callee = program.functions.get(f"{ENDPOINT_IMPL}::{name}")
            if callee is not None:
                sub = first_unguarded_page_touch(program, callee, stack,
                                                 state)
                if sub is not None:
                    result = sub
                    break
            continue
        if name in PAGE_PLANE_STATE and not state["guarded"]:
            result = (fn.path, line, "unguarded-touch")
            break
    stack.discard(fn.qname)
    return result


def check_recovery_guard(program):
    """recovery-guard: every non-Rec request whose prologue plus handler
    reaches the buffer pool must pass EnsurePageRecovered() first (and only
    after the liveness admission fence), so instant-restart admission
    cannot expose a page whose lazy repair has not run. Handlers that never
    touch the page plane (pure lock/lease/heartbeat traffic) are exempt by
    construction. The recovery plane (Rec*) is the repair path itself and
    stays unfenced."""
    out = []
    for req, fn in program.prologue[0]:
        hit = first_unguarded_page_touch(program, fn, set(),
                                         {"admitted": False,
                                          "guarded": False})
        if hit is None:
            continue
        path, line, kind = hit
        if kind == "guard-before-admission":
            out.append(Violation(
                path, line, "recovery-guard",
                f"request wire::{req} runs {GUARD_CALL}() before "
                f"{ADMISSION_CALL}(); a zombie could drive page repair "
                "through this path"))
        else:
            out.append(Violation(
                path, line, "recovery-guard",
                f"request wire::{req} reaches the buffer pool without "
                f"{GUARD_CALL}(); after an instant restart this serves a "
                "page whose lazy repair has not run"))
    return out


def check_prologue_only(program):
    """prologue-only: a handler runs only behind the prologue's fences --
    called from Server::Dispatch and nowhere else."""
    out = []
    for fn in program.functions.values():
        if fn.cls == ENDPOINT_IMPL and fn.name == PROLOGUE:
            continue
        for name, _order, line in fn.calls:
            if name == HANDLER or name.startswith(HANDLER + "("):
                out.append(Violation(
                    fn.path, line, "prologue-only",
                    f"{fn.qname} calls the request handler {name} directly; "
                    f"handlers run only behind {ENDPOINT_IMPL}::{PROLOGUE} "
                    "(crash check, exchange accounting, mastership and "
                    "liveness fences)"))
    return out


def check_rec_plane_flag(program):
    """rec-plane-flag: a wire struct's recovery_plane flag must match its
    Rec name prefix."""
    out = []
    for ws in program.wire_structs.values():
        if not ws.has_spec:
            continue
        flagged = program.recovery_plane(ws.name)
        named = ws.name.startswith(RECOVERY_PLANE_PREFIX)
        if flagged != named:
            out.append(Violation(
                ws.path, ws.line, "rec-plane-flag",
                f"wire::{ws.name} has recovery_plane = "
                f"{str(flagged).lower()} but its name "
                f"{'starts' if named else 'does not start'} with "
                f"'{RECOVERY_PLANE_PREFIX}'; the prologue fences by the "
                "flag, readers go by the name"))
    return out


def check_rpc_chokepoint(program):
    """rpc-chokepoint: only src/net/ does message accounting -- no Rpc
    internals named and no Channel counted outside it."""
    reported = set()
    for src in program.sources.values():
        if src.relpath.startswith(NET_DIR):
            continue
        for lineno, line in enumerate(src.stripped.splitlines(), 1):
            m = RPC_INTERNALS_RE.search(line)
            if m:
                reported.add((
                    src.relpath, lineno,
                    f"`{m.group(1)}` outside src/net/; issue typed exchanges "
                    "(Rpc::Exchange / Rpc::Notify with a wire:: request "
                    "struct) so options and sizes come from net/endpoints.h"))
    # Exact method-name matching: Count/CountBatch are Channel's alone in
    # this codebase (lowercase std::map::count does not collide).
    for fn in program.functions.values():
        if fn.path.startswith(NET_DIR):
            continue
        for name, _order, line in fn.calls:
            if name in CHOKEPOINT_METHODS:
                reported.add((
                    fn.path, line,
                    f"direct Channel::{name}() outside src/net/; every "
                    "message must go through Rpc::Call / Rpc::Send so wire "
                    "faults, retries, dedup and session fencing apply"))
    return [Violation(path, line, "rpc-chokepoint", message)
            for path, line, message in sorted(reported)]


def check_per_page_recovery_scan(program):
    """per-page-recovery-scan: a client's Rec handler reads one page's
    records through LogManager::ScanPage, not the whole log."""
    out = []
    for fn in program.functions.values():
        if fn.cls != CLIENT_CLASS \
                or not fn.name.startswith(CLIENT_REC_HANDLER_PREFIX):
            continue
        for name, _order, line in fn.calls:
            if name == WHOLE_LOG_SCAN:
                out.append(Violation(
                    fn.path, line, "per-page-recovery-scan",
                    f"{fn.qname} calls LogManager::{WHOLE_LOG_SCAN}(); a "
                    "server-restart repair handler reads only its page's "
                    "records through LogManager::ScanPage"))
    return out


def check_shared_state_annotations(program):
    out = []
    if program.strict:
        for name in sorted(REQUIRED_MARKED_CLASSES):
            cls = program.classes.get(name)
            if cls is None:
                out.append(Violation(
                    SRC_DIR, 1, "shared-state-annotations",
                    f"core shared class {name} not found in the program "
                    "model"))
            elif not cls.marked:
                out.append(Violation(
                    cls.path, cls.line, "shared-state-annotations",
                    f"class {name} must be marked {ANN_MARKED_CLASS} (its "
                    "fields are shared state the real-clock mode will race "
                    "on)"))
    for cls in program.classes.values():
        if not cls.marked:
            continue
        for fname, line, anns in cls.fields:
            if fname == CAPABILITY_FIELD:
                continue
            if not anns:
                out.append(Violation(
                    cls.path, line, "shared-state-annotations",
                    f"{cls.name}::{fname} has no thread-safety annotation; "
                    "add FINELOG_GUARDED_BY(mu_) / FINELOG_PT_GUARDED_BY"
                    '(mu_) or FINELOG_UNGUARDED("reason")'))
    return out


# --- WouldBlockReason enum sweep -------------------------------------------

REASON_ENUM_RE = re.compile(
    r"enum\s+class\s+" + REASON_ENUM + r"\b[^{]*\{([^}]*)\}")
REASON_CASE_RE = re.compile(
    r"case\s+" + REASON_ENUM + r"\s*::\s*(k\w+)")


def check_reason_sweep(header, source):
    """Core of the would-block-sweep rule: every WouldBlockReason enumerator
    (kRecoveringPage, kZombieFenced, ...) must have a `case` in the
    WouldBlockReasonName table, and every case must name a live enumerator.
    A reason without a printable name ships unreadable Status strings; a
    stale case means the enum and its retry-policy surface drifted apart."""
    out = []
    m = REASON_ENUM_RE.search(header.stripped)
    if m is None:
        out.append(Violation(
            header.relpath, 1, "would-block-sweep",
            f"could not parse `enum class {REASON_ENUM}`; the sweep rule "
            "is blind (fix the enum or this rule)"))
        return out
    enumerators = re.findall(r"\bk\w+", m.group(1))
    enum_line = header.text[:m.start()].count("\n") + 1
    if REASON_NAME_FN not in source.stripped:
        out.append(Violation(
            source.relpath, 1, "would-block-sweep",
            f"no {REASON_NAME_FN}() definition found"))
        return out
    cases = set(REASON_CASE_RE.findall(source.stripped))
    for e in enumerators:
        if e not in cases:
            out.append(Violation(
                header.relpath, enum_line, "would-block-sweep",
                f"{REASON_ENUM}::{e} has no case in {REASON_NAME_FN}() "
                f"({source.relpath}); every reason must print a readable "
                "name"))
    for c in sorted(cases):
        if c not in enumerators:
            lineno = 1
            for i, line in enumerate(source.stripped.splitlines(), 1):
                if REASON_ENUM in line and c in line:
                    lineno = i
                    break
            out.append(Violation(
                source.relpath, lineno, "would-block-sweep",
                f"{REASON_NAME_FN}() has a case for {REASON_ENUM}::{c} "
                f"which is not an enumerator in {header.relpath}"))
    return out


def check_would_block_sweep(program):
    """The file rule that pairs src/common/status.h with status.cc."""
    header = program.sources.get(STATUS_HEADER_RELPATH)
    source = program.sources.get(STATUS_SOURCE_RELPATH)
    if header is None or source is None:
        return [Violation(STATUS_HEADER_RELPATH, 1, "would-block-sweep",
                          "status.h/status.cc pair not found")
                ] if program.strict else []
    return check_reason_sweep(header, source)


# ==========================================================================
# Registry and driver
# ==========================================================================

# (rules it reports, directories it covers, check). Every file under
# CHECKED_DIRS is read; a file rule sees the files under its directories.
FILE_RULES = [
    (("determinism",), CHECKED_DIRS, check_determinism),
    (("scenario-helpers",), CHECKED_DIRS, check_scenario_helpers),
    (("fail-point",), [SRC_DIR], check_fail_points),
    (("net-fail-point", "liveness-fail-point"), [SRC_DIR],
     check_literal_grammars),
    (("raw-new-delete",), [SRC_DIR], check_new_delete),
    (("page-memcpy",), [SRC_DIR], check_page_memcpy),
    (("metrics-string-key",), [SRC_DIR], check_metrics_string_key),
    (("include-hygiene",), [SRC_DIR], check_include_hygiene),
]

# (rule, check). The program model holds the src/ files of the run.
PROGRAM_RULES = [
    ("wal-before-mutate", check_wal_before_mutate),
    ("admission-before-state", check_admission_before_state),
    ("mastership-fence", check_mastership_fence),
    ("recovery-guard", check_recovery_guard),
    ("prologue-only", check_prologue_only),
    ("rec-plane-flag", check_rec_plane_flag),
    ("rpc-chokepoint", check_rpc_chokepoint),
    ("per-page-recovery-scan", check_per_page_recovery_scan),
    ("shared-state-annotations", check_shared_state_annotations),
    ("would-block-sweep", check_would_block_sweep),
]

RULES = {r for rules, _dirs, _fn in FILE_RULES for r in rules} | \
    {r for r, _fn in PROGRAM_RULES}


def under(relpath, dirs):
    return any(relpath.startswith(d + os.sep) for d in dirs)


def check(sources, strict):
    """Runs every registered rule over `sources`: the file rules file by
    file, then the program rules over the model of the src/ files.
    Returns (violations, program)."""
    out = []
    seen = {}
    program = Program(strict)
    for src in sources:
        for _rules, dirs, fn in FILE_RULES:
            if under(src.relpath, dirs):
                out += fn(src, seen)
        if under(src.relpath, [SRC_DIR]):
            parse_source(src, program)
    for _rule, fn in PROGRAM_RULES:
        out += fn(program)
    return out, program


def read_tree(root):
    relpaths = []
    for d in CHECKED_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, d)):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir.startswith(FIXTURE_DIR):
                continue
            relpaths += [os.path.join(rel_dir, f) for f in filenames
                         if os.path.splitext(f)[1] in SOURCE_EXTS]
    sources = []
    for relpath in sorted(relpaths):
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            sources.append(Source(relpath, fh.read()))
    return sources


# fixture file -> rule that must fire in it. A fixture is checked as if it
# lived under src/common/, so a program-rule fixture is a self-contained
# mini-program (its own interface and classes), checked with the
# tree-level strictness off.
FIXTURES = {
    "bad_determinism.cc": "determinism",
    "bad_fail_point.cc": "fail-point",
    "bad_new_delete.cc": "raw-new-delete",
    "bad_page_memcpy.cc": "page-memcpy",
    "bad_include_guard.h": "include-hygiene",
    "bad_liveness_fail_point.cc": "liveness-fail-point",
    "bad_metrics_string.cc": "metrics-string-key",
    "bad_net_fail_point.cc": "net-fail-point",
    "bad_reason_sweep.cc": "would-block-sweep",
    "bad_scenario_helpers.cc": "scenario-helpers",
    "bad_unlogged_mutate.cc": "wal-before-mutate",
    "bad_unlogged_apply.cc": "wal-before-mutate",
    "bad_missing_admission.cc": "admission-before-state",
    "bad_missing_mastership.cc": "mastership-fence",
    "bad_missing_recovery_guard.cc": "recovery-guard",
    "bad_prologue_bypass.cc": "prologue-only",
    "bad_handler_calls_handler.cc": "prologue-only",
    "bad_rec_plane_flag.cc": "rec-plane-flag",
    "bad_message_sizes.cc": "rpc-chokepoint",
    "bad_raw_channel.cc": "rpc-chokepoint",
    "bad_whole_log_recovery_scan.cc": "per-page-recovery-scan",
    "bad_unannotated_field.cc": "shared-state-annotations",
}


def check_fixture(fname, rule, text):
    """The violations one fixture draws: the registry runs over it as over
    a tree file at its pseudo path, strictness off."""
    if rule == "would-block-sweep":
        # The sweep pairs status.h with status.cc; its fixture carries both
        # the enum and the name table and is checked against itself. It
        # counts as firing only when it fires in both drift directions.
        src = Source(os.path.join(FIXTURE_DIR, fname), text)
        got = check_reason_sweep(src, src)
        if not (any("has no case" in v.message for v in got)
                and any("not an enumerator" in v.message for v in got)):
            return []
        return got
    # scenario-helpers covers test files only.
    pseudo_dir = "tests" if rule == "scenario-helpers" \
        else os.path.join(SRC_DIR, "common")
    return check([Source(os.path.join(pseudo_dir, fname), text)],
                 strict=False)[0]


def run_self_test(root):
    failures = []
    fixture_root = os.path.join(root, FIXTURE_DIR)
    for fname in sorted(set(os.listdir(fixture_root)) - set(FIXTURES)):
        failures.append(f"fixture {fname} is not in the registry")
    for rule in sorted(set(FIXTURES.values()) - RULES):
        failures.append(f"a fixture names unknown rule '{rule}'")
    for rule in sorted(RULES - set(FIXTURES.values())):
        failures.append(f"rule '{rule}' has no fixture")
    for fname, rule in sorted(FIXTURES.items()):
        path = os.path.join(fixture_root, fname)
        if not os.path.isfile(path):
            failures.append(f"fixture missing: {path}")
            continue
        with open(path, encoding="utf-8") as fh:
            fired = {v.rule for v in check_fixture(fname, rule, fh.read())}
        if rule not in fired:
            failures.append(
                f"{fname}: expected rule '{rule}' to fire, got "
                f"{sorted(fired)}")
        else:
            print(f"self-test ok: {fname} -> {rule}")
    # The real tree must be clean, or the check gate is already red.
    for v in check(read_tree(root), strict=True)[0]:
        failures.append(f"tree not clean: {v}")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test passed ({len(FIXTURES)} fixtures, {len(RULES)} "
          f"rules, tree clean)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that each rule fires on its seeded "
                             "bad fixture, that every rule has one, and "
                             "that the tree is clean")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return run_self_test(root)
    sources = read_tree(root)
    violations, program = check(sources, strict=True)
    for v in violations:
        print(v)
    if violations:
        print(f"finelog_check: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"finelog_check: clean ({len(sources)} files, "
          f"{len(program.functions)} functions, "
          f"{len(program.mutators)} page mutators)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
