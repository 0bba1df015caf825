#!/usr/bin/env python3
"""finelog_verify: AST-level protocol-conformance checker (DESIGN.md sec. 16).

Where tools/finelog_lint.py works line-by-line with regexes, this tool builds
a whole-program model -- function definitions, bodies, call sites, class
fields, and the FINELOG_* annotations from src/common/annotations.h -- and
enforces the ordering disciplines the paper's correctness argument rests on.

Rule families
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
  rpc-chokepoint         Direct Channel::Count / Channel::CountBatch calls
                         are banned outside src/net/ at the call-graph level
                         (the successor of the retired textual lint rule:
                         token/AST-based, so comments, strings and macro
                         names cannot fool it).
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
A tokenizer + scope parser over the comment/string stripper shared with
finelog_lint (tools/finelog_cpp.py) builds the program model, driven by the
repo conventions the lint already enforces (trailing-underscore members,
CamelCase methods, repo-root-relative includes). It needs nothing beyond
Python.

Usage
-----
  tools/finelog_verify.py [--root DIR]
  tools/finelog_verify.py --self-test    run each rule against its seeded bad
                                         fixture in tests/verify_fixtures and
                                         require the full tree to be clean
"""

import argparse
import os
import re
import sys

from finelog_cpp import Violation, strip_comments_and_strings

SRC_DIR = "src"
NET_DIR = os.path.join("src", "net")
FIXTURE_DIR = os.path.join("tests", "verify_fixtures")

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

CHOKEPOINT_CLASS = "Channel"
CHOKEPOINT_METHODS = {"Count", "CountBatch"}

CAPABILITY_FIELD = "mu_"
REQUIRED_MARKED_CLASSES = {
    "Server", "GlobalLockManager", "LivenessTable", "LogManager", "Client",
}

CPP_KEYWORDS = {
    "if", "while", "for", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "case", "do", "else", "alignof", "decltype", "assert",
    "static_assert", "noexcept", "defined",
}


# --------------------------------------------------------------------------
# Program model
# --------------------------------------------------------------------------

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
    def __init__(self):
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


def parse_file_internal(relpath, text, program):
    stripped = drop_preprocessor(strip_comments_and_strings(text))
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
                    # Chokepoint scan happens on call collection below.
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


def iter_src_files(root):
    base = os.path.join(root, SRC_DIR)
    for dirpath, _dirnames, filenames in os.walk(base):
        for f in sorted(filenames):
            if os.path.splitext(f)[1] in (".h", ".cc"):
                yield os.path.relpath(os.path.join(dirpath, f), root)


def build_program_internal(root, files=None):
    program = Program()
    for relpath in (files if files is not None else iter_src_files(root)):
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            text = fh.read()
        parse_file_internal(relpath, text, program)
    return program


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

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


def prologue_instances(program, strict=True):
    """The prologue as each non-Rec server request runs it: a copy of
    Server::Dispatch whose `Handle(request)` call is bound to that request's
    handler. Returns ([(request, Function)], violations) -- the violations
    report a missing prologue, handler or request list."""
    out = []
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


def check_admission_before_state(program, instances):
    out = []
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


def check_mastership_fence(program, instances):
    """mastership-fence: every standby-reachable (non-Rec) request must
    check mastership before per-client liveness. The recovery plane stays
    unfenced for the same reason it skips the liveness fence: it is how a
    client rejoins, and a takeover's own Restart() drives it. Requests that
    never reach LivenessAdmission at all are admission-before-state's
    problem, not this rule's."""
    out = []
    memo = {}
    for req, fn in instances:
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


def check_recovery_guard(program, instances):
    """recovery-guard: every non-Rec request whose prologue plus handler
    reaches the buffer pool must pass EnsurePageRecovered() first (and only
    after the liveness admission fence), so instant-restart admission
    cannot expose a page whose lazy repair has not run. Handlers that never
    touch the page plane (pure lock/lease/heartbeat traffic) are exempt by
    construction. The recovery plane (Rec*) is the repair path itself and
    stays unfenced."""
    out = []
    for req, fn in instances:
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
    out = []
    # Exact method-name matching: Count/CountBatch are Channel's alone in
    # this codebase (lowercase std::map::count does not collide).
    reported = set()
    for fn in program.functions.values():
        if fn.path.startswith(NET_DIR + os.sep):
            continue
        for name, _order, line in fn.calls:
            if name in CHOKEPOINT_METHODS:
                reported.add((fn.path, line, name))
    for path, line, name in sorted(reported):
        out.append(Violation(
            path, line, "rpc-chokepoint",
            f"direct Channel::{name}() outside src/net/; every message must "
            "go through Rpc::Call / Rpc::Send so wire faults, retries, "
            "dedup and session fencing apply"))
    return out


def check_shared_state_annotations(program, require_core=True):
    out = []
    if require_core:
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


def run_rules(program, strict=True):
    out = []
    out += check_wal_before_mutate(program)
    instances, missing = prologue_instances(program, strict=strict)
    out += missing
    out += check_admission_before_state(program, instances)
    out += check_mastership_fence(program, instances)
    out += check_recovery_guard(program, instances)
    out += check_prologue_only(program)
    out += check_rec_plane_flag(program)
    out += check_rpc_chokepoint(program)
    out += check_shared_state_annotations(program, require_core=strict)
    return out


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

# fixture file -> rule that must fire on it. Each fixture is a
# self-contained mini-program (its own interface/classes), verified in
# isolation with the tree-level strictness checks off.
FIXTURES = {
    "bad_unlogged_mutate.cc": "wal-before-mutate",
    "bad_unlogged_apply.cc": "wal-before-mutate",
    "bad_missing_admission.cc": "admission-before-state",
    "bad_missing_mastership.cc": "mastership-fence",
    "bad_missing_recovery_guard.cc": "recovery-guard",
    "bad_prologue_bypass.cc": "prologue-only",
    "bad_handler_calls_handler.cc": "prologue-only",
    "bad_rec_plane_flag.cc": "rec-plane-flag",
    "bad_raw_channel.cc": "rpc-chokepoint",
    "bad_unannotated_field.cc": "shared-state-annotations",
}


def run_self_test(root):
    failures = []
    fixture_root = os.path.join(root, FIXTURE_DIR)
    for fname, rule in sorted(FIXTURES.items()):
        path = os.path.join(fixture_root, fname)
        if not os.path.isfile(path):
            failures.append(f"fixture missing: {path}")
            continue
        program = Program()
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        # Fixtures are parsed as if they lived under src/common/ so the
        # chokepoint rule's src/net/ exemption does not apply.
        parse_file_internal(os.path.join("src", "common", fname), text,
                            program)
        got = run_rules(program, strict=False)
        fired = {v.rule for v in got}
        if rule not in fired:
            failures.append(
                f"{fname}: expected rule '{rule}' to fire, got "
                f"{sorted(fired)}")
        else:
            print(f"self-test ok: {fname} -> {rule}")
    # The real tree must be clean, or the verify gate is already red.
    tree = run_rules(build_program_internal(root), strict=True)
    for v in tree:
        failures.append(f"tree not clean: {v}")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test passed ({len(FIXTURES)} fixtures, tree clean)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="check each rule fires on its seeded bad "
                             "fixture and that the tree is clean")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return run_self_test(root)
    program = build_program_internal(root)
    violations = run_rules(program, strict=True)
    for v in violations:
        print(v)
    if violations:
        print(f"finelog_verify: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    nfn = len(program.functions)
    print(f"finelog_verify: clean ({nfn} functions, "
          f"{len(program.mutators)} page mutators)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
