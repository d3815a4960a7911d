#!/usr/bin/env python3
"""Project lint gate: repo-specific rules clang-tidy cannot express.

Run from anywhere inside the repo:

    python3 tools/ldpjs_lint.py

Exit code 0 means every rule passed; 1 means violations were printed, one
per line, as `path:line: [rule] message`. CI runs this in the
static-analysis job next to clang-tidy; the rules are cheap greps, so run
it locally before pushing.

Rules (each has a short slug used in the output):

  mutex-wrapper   src/ must use the annotated Mutex/MutexLock/CondVar
                  wrappers (src/common/thread_annotations.h) — never raw
                  std::mutex, std::lock_guard, std::unique_lock,
                  std::scoped_lock, or std::condition_variable. The wrapper
                  is what makes Clang Thread Safety Analysis see every
                  lock site; one raw mutex re-opens the blind spot.

  no-sleep        No raw this_thread::sleep_for in src/ outside the two
                  blessed timing primitives (Backoff and Socket's poll
                  helper). Ad-hoc sleeps are how flaky timing bugs start;
                  use Backoff, a CondVar wait, or a deadline instead.

  no-wall-clock   No wall-clock reads (system_clock, gettimeofday,
                  CLOCK_REALTIME, time(...)) in src/ outside the one
                  allow-listed trace-origin site (obs/metrics.cc
                  NowNanos). Epoch numbering and hot paths must use
                  steady_clock so a step in wall time cannot reorder
                  epochs or corrupt latency measurements.

  codec-test      Every `Decode*` codec declared in src/ headers must be
                  referenced from a test file that exercises trailing-byte
                  rejection (the file mentions "trailing"). Length-
                  transparent decoders silently accept garbage suffixes —
                  the exact bug class this repo's wire format tests pin.

  json-key-test   Every JSON key the NETMETRICS/stats exporters emit in
                  src/ must appear in some test. The stats JSON is a
                  consumer contract (`ldpjs_cli top` and external
                  scrapers parse it); an unasserted key can be renamed or
                  dropped without any test noticing.

  one-protocol-version
                  LJSP speaks exactly one version (kNetVersion); a HELLO in
                  any other is rejected. No C++ file under src/, tools/ or
                  tests/ may name kNetMinVersion, announce_version or
                  negotiated_version, and none outside src/net/protocol.cc
                  may compare a session's or connection's `version` field
                  against a number. Those are the pieces a version-
                  negotiation ladder is built from, and every peer that
                  would need one lives in this repo.

  orphan-module   Every header under src/ must be #included by some file
                  other than its own .cc and outside tests/: from src/,
                  tools/, bench/, examples/ or perfbench/src/. A module
                  that only its own tests reach is dead code; delete it or
                  wire it into the library.

  layering        No file under src/core, src/data, src/ldp or src/sketch
                  may include a net/, service/, federation/ or obs/
                  header: deployments build on the estimators, never the
                  other way round.

  bench-gate-message
                  No bare std::abort() under bench/: the statement right
                  before every abort must write to stderr, naming the
                  failed check, its measured value and its budget.
                  bench_micro routes every check through one such helper
                  (Fail); an abort that prints nothing cannot be
                  attributed when a gate run fails.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"
SRC = REPO / "src"
TESTS = REPO / "tests"
TOOLS = REPO / "tools"
# Where a header's users may live for it to count as used (orphan-module).
INCLUDERS = (SRC, TOOLS, BENCH, REPO / "examples", REPO / "perfbench" / "src")

# -- allow-lists -------------------------------------------------------------

# Blessed sleep sites: the jittered Backoff primitive and Socket's
# poll-retry helper. Everything else must wait on a CondVar or deadline.
SLEEP_ALLOWED = {
    "src/common/backoff.h",
    "src/common/socket.cc",
}

# Blessed wall-clock site: trace origins are wall time by design so
# cross-host trace spans line up (obs/metrics.h documents the contract).
WALL_CLOCK_ALLOWED = {
    "src/obs/metrics.cc",
}

# The wrapper header itself is the only file allowed to name the raw
# primitives it wraps.
MUTEX_ALLOWED = {
    "src/common/thread_annotations.h",
}

# Estimator layers, and the deployment layers they must not reach (layering).
ESTIMATOR_DIRS = ("core", "data", "ldp", "sketch")
DEPLOYMENT_DIRS = ("net", "service", "federation", "obs")

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# The protocol codec is the one place that checks the version byte.
VERSION_COMPARE_ALLOWED = {
    "src/net/protocol.cc",
}

# -- helpers -----------------------------------------------------------------


def src_files():
    return sorted(p for p in SRC.rglob("*") if p.suffix in (".h", ".cc"))


def test_files():
    return sorted(TESTS.glob("*.cc"))


def cpp_files(*roots):
    return sorted(
        p
        for root in roots
        for p in root.rglob("*")
        if p.suffix in (".h", ".cc", ".cpp")
    )


def strip_comments(line):
    """Drop //-comments so commented-out code cannot trip a rule."""
    return line.split("//", 1)[0]


def rel(path):
    return path.relative_to(REPO).as_posix()


# -- rules -------------------------------------------------------------------


def check_mutex_wrapper(violations):
    raw = re.compile(
        r"std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b"
    )
    for path in src_files():
        if rel(path) in MUTEX_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = raw.search(strip_comments(line))
            if match:
                violations.append(
                    f"{rel(path)}:{lineno}: [mutex-wrapper] raw std::"
                    f"{match.group(1)} — use the annotated wrappers in "
                    "common/thread_annotations.h"
                )


def check_no_sleep(violations):
    for path in src_files():
        if rel(path) in SLEEP_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "sleep_for" in strip_comments(line):
                violations.append(
                    f"{rel(path)}:{lineno}: [no-sleep] raw sleep_for — use "
                    "Backoff, a CondVar wait, or a deadline"
                )


def check_no_wall_clock(violations):
    wall = re.compile(
        r"system_clock|gettimeofday|CLOCK_REALTIME|(?<![A-Za-z0-9_])time\s*\("
    )
    for path in src_files():
        if rel(path) in WALL_CLOCK_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = wall.search(strip_comments(line))
            if match:
                violations.append(
                    f"{rel(path)}:{lineno}: [no-wall-clock] wall-clock read "
                    f"({match.group(0).strip()}) — use steady_clock, or "
                    "route trace origins through NowNanos()"
                )


def check_codec_tests(violations):
    decl = re.compile(r"\bDecode[A-Z][A-Za-z0-9_]*")
    codecs = {}  # name -> first declaring header:line
    for path in src_files():
        if path.suffix != ".h":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in decl.findall(strip_comments(line)):
                codecs.setdefault(name, f"{rel(path)}:{lineno}")
    tests = [(p, p.read_text()) for p in test_files()]
    for name, where in sorted(codecs.items()):
        covered = any(
            name in text and "trailing" in text.lower() for _, text in tests
        )
        if not covered:
            violations.append(
                f"{where}: [codec-test] {name} has no trailing-byte-"
                "rejection test — add one to tests/ referencing it"
            )


def check_json_key_tests(violations):
    # JSON keys appear in C++ string literals as \"key\": — collect every
    # key src/ emits, then require the bare token somewhere in tests/.
    key = re.compile(r'\\"([A-Za-z0-9_]+)\\":')
    keys = {}  # key -> first emitting file:line
    for path in src_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for k in key.findall(line):
                keys.setdefault(k, f"{rel(path)}:{lineno}")
    corpus = "\n".join(p.read_text() for p in test_files())
    tokens = set(re.findall(r"[A-Za-z0-9_]+", corpus))
    for k, where in sorted(keys.items()):
        if k not in tokens:
            violations.append(
                f"{where}: [json-key-test] stats JSON key \"{k}\" never "
                "appears in tests/ — assert it where the JSON is rendered"
            )


def check_one_protocol_version(violations):
    ladder = re.compile(
        r"\b(kNetMinVersion|announce_version|negotiated_version)\b"
    )
    # `x.version < 4`, `4 <= x->version`, and gtest's EXPECT_EQ(x.version, 4).
    member = r"(?:\.|->)version\b"
    compare = re.compile(
        member + r"\s*(?:[<>]=?|[!=]=)\s*\d"
        r"|\b\d+[uU]?\s*(?:[<>]=?|[!=]=)\s*[A-Za-z_][\w.>-]*" + member
        + r"|_(?:EQ|NE|LT|LE|GT|GE)\(\s*[A-Za-z_][\w.>-]*" + member
        + r"\s*,\s*\d"
    )
    for path in cpp_files(SRC, TOOLS, TESTS):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = ladder.search(line)
            if match:
                violations.append(
                    f"{rel(path)}:{lineno}: [one-protocol-version] "
                    f"{match.group(1)} — LJSP has one version; there is "
                    "nothing to negotiate"
                )
            elif rel(path) not in VERSION_COMPARE_ALLOWED and compare.search(
                strip_comments(line)
            ):
                violations.append(
                    f"{rel(path)}:{lineno}: [one-protocol-version] version "
                    "gate — every session speaks kNetVersion; only "
                    "src/net/protocol.cc checks the version byte"
                )


def check_orphan_modules(violations):
    used = set()
    for path in cpp_files(*INCLUDERS):
        for line in path.read_text().splitlines():
            match = INCLUDE.match(line)
            if not match:
                continue
            header = match.group(1)
            # A module's own .cc including its header does not use it.
            if rel(path) == "src/" + header.removesuffix(".h") + ".cc":
                continue
            used.add(header)
    for path in src_files():
        header = path.relative_to(SRC).as_posix()
        if path.suffix == ".h" and header not in used:
            violations.append(
                f"{rel(path)}:1: [orphan-module] nothing outside tests/ "
                f"and its own .cc includes {header} — delete the module "
                "or wire it into the library"
            )


def check_layering(violations):
    for path in cpp_files(*(SRC / d for d in ESTIMATOR_DIRS)):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = INCLUDE.match(line)
            if match and match.group(1).split("/")[0] in DEPLOYMENT_DIRS:
                violations.append(
                    f"{rel(path)}:{lineno}: [layering] includes "
                    f"{match.group(1)} — estimator layers must not depend "
                    "on the deployment stack"
                )


def check_bench_gate_message(violations):
    # The statement that ends right before the abort; none when the abort
    # opens a block or is the body of an `if (...)`.
    previous = re.compile(r"[;{}]([^;{}]*);\s*$")
    for path in cpp_files(BENCH):
        lines = [strip_comments(line) for line in path.read_text().splitlines()]
        for lineno, line in enumerate(lines, 1):
            if "std::abort()" not in line:
                continue
            prefix = "\n".join(lines[: lineno - 1] + [line.split("std::abort()")[0]])
            match = previous.search(prefix)
            if not match or not re.search(r"stderr|std::cerr", match.group(1)):
                violations.append(
                    f"{rel(path)}:{lineno}: [bench-gate-message] bare "
                    "std::abort() — print the check, its measured value and "
                    "its budget to stderr first (bench_micro's Fail)"
                )


def main():
    violations = []
    check_mutex_wrapper(violations)
    check_no_sleep(violations)
    check_no_wall_clock(violations)
    check_codec_tests(violations)
    check_json_key_tests(violations)
    check_one_protocol_version(violations)
    check_orphan_modules(violations)
    check_layering(violations)
    check_bench_gate_message(violations)
    if violations:
        for v in violations:
            print(v)
        print(f"\nldpjs_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("ldpjs_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
