#!/usr/bin/env python3
"""Project-invariant linter (DESIGN.md section 12).

Enforces determinism and cancellation invariants that neither the
compiler nor clang-tidy can see, because they are contracts of *this*
project rather than of C++:

  unordered-iteration   Determinism-critical files (reports, CSV
                        emission, key hashing, cache bookkeeping) must
                        not iterate over unordered containers: hash
                        iteration order is not stable across libstdc++
                        versions, so any output derived from it would
                        break run-to-run reproducibility.
  ambient-randomness    All randomness flows through support::stream_rng
                        (seeded, splittable); all timing through
                        steady_clock.  rand()/random_device/system_clock
                        and friends reintroduce ambient state that makes
                        runs unreproducible.
  solver-cancel         Every solver / Monte-Carlo loop file must
                        reference the CancelToken: a loop that never
                        polls cancellation turns the daemon's deadline
                        contract into a dead letter.
  status-pinned         StatusCode values are wire/exit-code contract;
                        pinned values must never be renumbered and new
                        codes must not reuse old (or retired) values.
  failpoint-registry    Every failpoint::evaluate("site") in the tree
                        must appear in the DESIGN.md registry block, and
                        every documented site must exist in code.
  raw-intrinsics        Vector intrinsics (AVX2 `_mm256_*`, NEON
                        `v*q_f64`, their headers and register types) are
                        confined to src/support/simd.{hpp,cpp}.  Domain
                        code expresses hot loops through the
                        support::simd::Kernels table so every kernel has
                        a scalar twin and the bit-identity property tests
                        cover it (DESIGN.md section 14).

Suppression: append `// lint:allow <rule-id> -- <reason>` to the
offending line or the line directly above it.  The reason is mandatory;
a malformed suppression is itself reported (suppression-syntax).  For
the file-scope rule (solver-cancel) the comment may sit anywhere in the
file.

Exit status: 0 when clean, 1 when violations were found, 2 on usage
errors.  Run with --require-all (CI does) to also fail when a file the
configuration expects is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Configuration


@dataclasses.dataclass(frozen=True)
class Config:
    """Everything rule code needs, relative to a scan root."""

    # Files (relative, forward slashes) where hash-order iteration is a
    # determinism bug.  Reports and CSVs feed diffs; key hashing feeds
    # cache identity; session.cpp feeds wire-visible stats.
    determinism_critical: Tuple[str, ...] = (
        "src/core/report.cpp",
        "src/core/report.hpp",
        "src/core/serialization.cpp",
        "src/runner/batch_runner.cpp",
        "src/runner/artifact_cache.hpp",
        "src/runner/artifact_cache.cpp",
        "src/runner/scenario_engine.cpp",
        # The on-disk store writes manifests and records, and the shard
        # rule decides which process computes a cell: hash-order
        # iteration there breaks the byte-parity contract (DESIGN.md §13).
        "src/runner/disk_store.hpp",
        "src/runner/disk_store.cpp",
        "src/runner/shard.hpp",
        "src/runner/shard.cpp",
        "src/api/session.cpp",
        # The kernel layer underpins the vector-vs-scalar byte-parity
        # contract (DESIGN.md §14): any order-sensitive bookkeeping here
        # must be deterministic.
        "src/support/simd.hpp",
        "src/support/simd.cpp",
    )
    # Files allowed to touch ambient randomness / wall clocks.
    randomness_approved: Tuple[str, ...] = (
        "src/support/rng.hpp",
    )
    # Solver / Monte-Carlo loop files that must reference the CancelToken.
    solver_files: Tuple[str, ...] = (
        "src/mrf/exhaustive.cpp",
        "src/mrf/icm.cpp",
        "src/mrf/trws.cpp",
        "src/sim/compiled.cpp",
        "src/bayes/compiled.cpp",
        "src/runner/scenario_engine.cpp",
    )
    # The only files allowed to contain raw vector intrinsics; everything
    # else goes through the support::simd::Kernels table.
    intrinsics_approved: Tuple[str, ...] = (
        "src/support/simd.hpp",
        "src/support/simd.cpp",
    )
    status_header: str = "src/api/status.hpp"
    design_doc: str = "DESIGN.md"
    # Wire/exit-code contract.  Value 1 is retired and must stay unused.
    pinned_status: Tuple[Tuple[str, int], ...] = (
        ("Ok", 0),
        ("InvalidArgument", 2),
        ("ParseError", 3),
        ("NotFound", 4),
        ("Infeasible", 5),
        ("LogicError", 6),
        ("Saturated", 7),
        ("PartialFailure", 8),
        ("Internal", 9),
        ("DeadlineExceeded", 10),
        ("Cancelled", 11),
    )
    next_free_status: int = 12


DEFAULT_CONFIG = Config()

RULE_IDS = (
    "unordered-iteration",
    "ambient-randomness",
    "solver-cancel",
    "status-pinned",
    "failpoint-registry",
    "raw-intrinsics",
)

SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str  # relative, forward slashes
    line: int  # 1-based; 0 for file-scope findings
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Suppressions

_ALLOW_RE = re.compile(
    r"//\s*lint:allow\s+(?P<rules>[a-z][a-z0-9-]*(?:\s*,\s*[a-z][a-z0-9-]*)*)"
    r"\s*--\s*(?P<reason>\S.*)$"
)
_ALLOW_HINT_RE = re.compile(r"lint:allow")


class Suppressions:
    """lint:allow markers for one file: line-scoped and file-scoped."""

    def __init__(self) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.anywhere: Set[str] = set()
        self.syntax_errors: List[Tuple[int, str]] = []

    def allows(self, rule: str, line: int) -> bool:
        """Line-scoped check: the marker must sit on the line or just above."""
        covered = self.by_line.get(line, set()) | self.by_line.get(line - 1, set())
        return rule in covered


def collect_suppressions(lines: Sequence[str]) -> Suppressions:
    sup = Suppressions()
    for number, text in enumerate(lines, start=1):
        if not _ALLOW_HINT_RE.search(text):
            continue
        match = _ALLOW_RE.search(text)
        if not match:
            sup.syntax_errors.append(
                (number, "malformed lint:allow (expected `// lint:allow <rule> -- <reason>`)")
            )
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        unknown = rules - set(RULE_IDS)
        if unknown:
            sup.syntax_errors.append(
                (number, "lint:allow names unknown rule(s): " + ", ".join(sorted(unknown)))
            )
            continue
        sup.by_line.setdefault(number, set()).update(rules)
        # `anywhere` is consulted only by file-scope rules (solver-cancel);
        # line rules go through allows(), which ignores it.
        sup.anywhere.update(rules)
    return sup


# --------------------------------------------------------------------------
# Rule: unordered-iteration

_UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|multimap|set|multiset)\s*<")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _declared_unordered_names(text: str) -> Set[str]:
    """Variable names declared with an unordered container type.

    Walks balanced angle brackets after `unordered_xxx<` (declarations
    may span lines), then takes the next identifier.  Identifiers that
    are immediately called — `unordered_map<K, V> make() {` — are
    function names, not variables, and are skipped.
    """
    names: Set[str] = set()
    for match in _UNORDERED_DECL_RE.finditer(text):
        position = match.end()  # just past '<'
        depth = 1
        while position < len(text) and depth > 0:
            char = text[position]
            if char == "<":
                depth += 1
            elif char == ">" and text[position - 1] != "-":  # skip '->'
                depth -= 1
            position += 1
        if depth != 0:
            continue
        ident = _IDENT_RE.match(text, pos=_skip_space(text, position))
        if not ident:
            continue
        after = _skip_space(text, ident.end())
        if after < len(text) and text[after] == "(":
            continue  # function declaration/definition
        names.add(ident.group(0))
    return names


def _skip_space(text: str, position: int) -> int:
    while position < len(text) and text[position].isspace():
        position += 1
    return position


def check_unordered_iteration(
    root: pathlib.Path, config: Config, findings: List[Finding]
) -> None:
    for relative in config.determinism_critical:
        path = root / relative
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        names = _declared_unordered_names(text)
        if not names:
            continue
        lines = text.splitlines()
        sup = collect_suppressions(lines)
        _report_suppression_errors(relative, sup, findings)
        alternation = "|".join(re.escape(name) for name in sorted(names))
        range_for = re.compile(
            r"for\s*\([^;{)]*:\s*(?:[A-Za-z_][A-Za-z0-9_]*\s*(?:\.|->)\s*)*"
            r"(?:" + alternation + r")\b"
        )
        begin_call = re.compile(r"\b(?:" + alternation + r")\s*\.\s*c?begin\s*\(")
        for number, line in enumerate(lines, start=1):
            if not (range_for.search(line) or begin_call.search(line)):
                continue
            if sup.allows("unordered-iteration", number):
                continue
            findings.append(
                Finding(
                    relative,
                    number,
                    "unordered-iteration",
                    "iteration over an unordered container in a determinism-critical "
                    "file; use an ordered container or sort before emitting "
                    "(suppress only if provably order-independent)",
                )
            )


# --------------------------------------------------------------------------
# Rule: ambient-randomness

_RANDOMNESS_PATTERNS: Tuple[Tuple[re.Pattern, str], ...] = (
    (re.compile(r"\brand\s*\("), "rand() is ambient global state; use support::stream_rng"),
    (re.compile(r"\bsrand\s*\("), "srand() is ambient global state; use support::stream_rng"),
    (
        re.compile(r"\brandom_device\b"),
        "std::random_device is nondeterministic; derive seeds via support::stream_rng",
    ),
    (
        re.compile(r"\bsystem_clock\b"),
        "system_clock is the wall clock; use steady_clock (support::CancelToken) "
        "or pass timestamps in",
    ),
    (
        re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
        "time(nullptr) reads the wall clock; runs must not depend on it",
    ),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday reads the wall clock"),
    (re.compile(r"\blocaltime\b"), "localtime reads the wall clock/timezone"),
    (re.compile(r"\bgmtime\b"), "gmtime reads the wall clock"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock() reads process CPU time; not reproducible"),
)


def check_ambient_randomness(
    root: pathlib.Path, config: Config, findings: List[Finding]
) -> None:
    approved = set(config.randomness_approved)
    for path in _source_files(root / "src"):
        relative = path.relative_to(root).as_posix()
        if relative in approved:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        sup = collect_suppressions(lines)
        _report_suppression_errors(relative, sup, findings)
        for number, line in enumerate(lines, start=1):
            for pattern, why in _RANDOMNESS_PATTERNS:
                if not pattern.search(line):
                    continue
                if sup.allows("ambient-randomness", number):
                    continue
                findings.append(Finding(relative, number, "ambient-randomness", why))


# --------------------------------------------------------------------------
# Rule: solver-cancel

_CANCEL_RE = re.compile(r"[Cc]ancel")


def check_solver_cancel(
    root: pathlib.Path, config: Config, findings: List[Finding], require_all: bool
) -> None:
    for relative in config.solver_files:
        path = root / relative
        if not path.is_file():
            if require_all:
                findings.append(
                    Finding(
                        relative,
                        0,
                        "solver-cancel",
                        "configured solver file is missing; update the linter "
                        "configuration if it moved",
                    )
                )
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        sup = collect_suppressions(lines)
        _report_suppression_errors(relative, sup, findings)
        if any(_CANCEL_RE.search(line) for line in lines):
            continue
        if "solver-cancel" in sup.anywhere:
            continue
        findings.append(
            Finding(
                relative,
                0,
                "solver-cancel",
                "solver/Monte-Carlo file never references the CancelToken; long "
                "loops must poll cancellation (DESIGN.md section 11)",
            )
        )


# --------------------------------------------------------------------------
# Rule: raw-intrinsics

_INTRINSIC_PATTERNS: Tuple[Tuple[re.Pattern, str], ...] = (
    (
        re.compile(r"#\s*include\s*[<\"](?:immintrin|x86intrin|emmintrin|xmmintrin|"
                   r"smmintrin|avxintrin|arm_neon|arm_sve)\.h[>\"]"),
        "vector-intrinsic header included outside the kernel layer",
    ),
    (
        re.compile(r"\b_mm(?:\d{3})?_[a-z0-9_]+\s*\("),
        "x86 SIMD intrinsic call outside src/support/simd.{hpp,cpp}",
    ),
    (
        re.compile(r"\b__m(?:64|128|256|512)[di]?\b"),
        "x86 vector register type outside src/support/simd.{hpp,cpp}",
    ),
    (
        # NEON intrinsics end in a lane-type suffix (vminq_f64, vld1q_u32,
        # vdupq_n_f64, ...); NEON vector types are <base>x<lanes>_t.
        re.compile(r"\bv[a-z0-9_]+_[fsup](?:8|16|32|64)\s*\("),
        "NEON intrinsic call outside src/support/simd.{hpp,cpp}",
    ),
    (
        re.compile(r"\b(?:float|int|uint|poly)(?:8|16|32|64)x(?:1|2|4|8|16)(?:x\d)?_t\b"),
        "NEON vector type outside src/support/simd.{hpp,cpp}",
    ),
)


def check_raw_intrinsics(root: pathlib.Path, config: Config, findings: List[Finding]) -> None:
    approved = set(config.intrinsics_approved)
    for path in _source_files(root / "src"):
        relative = path.relative_to(root).as_posix()
        if relative in approved:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        sup = collect_suppressions(lines)
        _report_suppression_errors(relative, sup, findings)
        for number, line in enumerate(lines, start=1):
            for pattern, why in _INTRINSIC_PATTERNS:
                if not pattern.search(line):
                    continue
                if sup.allows("raw-intrinsics", number):
                    continue
                findings.append(
                    Finding(
                        relative,
                        number,
                        "raw-intrinsics",
                        why + "; route the loop through support::simd::Kernels so the "
                        "scalar twin and bit-identity tests cover it",
                    )
                )


# --------------------------------------------------------------------------
# Rule: status-pinned

_ENUM_RE = re.compile(r"enum\s+class\s+StatusCode[^{]*\{(?P<body>.*?)\}", re.DOTALL)
_ENUM_ENTRY_RE = re.compile(r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:=\s*(?P<value>\d+))?\s*,?")


def check_status_pinned(root: pathlib.Path, config: Config, findings: List[Finding],
                        require_all: bool) -> None:
    path = root / config.status_header
    relative = config.status_header
    if not path.is_file():
        if require_all:
            findings.append(
                Finding(relative, 0, "status-pinned", "status header is missing"))
        return
    text = path.read_text(encoding="utf-8")
    enum = _ENUM_RE.search(text)
    if not enum:
        findings.append(
            Finding(relative, 0, "status-pinned", "could not find `enum class StatusCode`"))
        return
    first_line = text[: enum.start()].count("\n") + 1
    pinned = dict(config.pinned_status)
    seen: Dict[str, int] = {}
    used_values: Dict[int, str] = {}
    body_offset = text[: enum.start("body")].count("\n")
    for index, raw in enumerate(enum.group("body").split("\n")):
        stripped = raw.split("//")[0].strip()
        if not stripped:
            continue
        entry = _ENUM_ENTRY_RE.match(stripped)
        if not entry:
            continue
        line = body_offset + index + 1
        name = entry.group("name")
        value_text = entry.group("value")
        if value_text is None:
            findings.append(
                Finding(relative, line, "status-pinned",
                        f"StatusCode::{name} has no explicit value; every code must "
                        "be pinned (implicit values renumber when entries move)"))
            seen[name] = -1  # present, just unpinned — don't also report removal
            continue
        value = int(value_text)
        if value in used_values:
            findings.append(
                Finding(relative, line, "status-pinned",
                        f"StatusCode::{name} reuses value {value} "
                        f"(already StatusCode::{used_values[value]})"))
        used_values.setdefault(value, name)
        seen[name] = value
        if name in pinned:
            if value != pinned[name]:
                findings.append(
                    Finding(relative, line, "status-pinned",
                            f"StatusCode::{name} is pinned to {pinned[name]} but reads "
                            f"{value}; pinned codes are wire contract and must never "
                            "be renumbered"))
        elif value < config.next_free_status:
            findings.append(
                Finding(relative, line, "status-pinned",
                        f"new StatusCode::{name} uses value {value}, inside the "
                        f"pinned/retired range; new codes start at "
                        f"{config.next_free_status}"))
    for name, value in pinned.items():
        if name not in seen:
            findings.append(
                Finding(relative, first_line, "status-pinned",
                        f"pinned StatusCode::{name} (= {value}) has been removed; "
                        "pinned codes may be deprecated in comments but never deleted"))


# --------------------------------------------------------------------------
# Rule: failpoint-registry

_FAILPOINT_CALL_RE = re.compile(r"failpoint::evaluate\(\s*\"(?P<site>[^\"]+)\"\s*\)")
_REGISTRY_BEGIN = "<!-- failpoint-registry:begin -->"
_REGISTRY_END = "<!-- failpoint-registry:end -->"
_REGISTRY_SITE_RE = re.compile(r"^\s*[-*|]\s*`(?P<site>[a-z0-9_.]+)`")


def check_failpoint_registry(
    root: pathlib.Path, config: Config, findings: List[Finding], require_all: bool
) -> None:
    code_sites: Dict[str, Tuple[str, int]] = {}
    for path in _source_files(root / "src"):
        relative = path.relative_to(root).as_posix()
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            for match in _FAILPOINT_CALL_RE.finditer(line):
                code_sites.setdefault(match.group("site"), (relative, number))

    design = root / config.design_doc
    if not design.is_file():
        if require_all or code_sites:
            findings.append(
                Finding(config.design_doc, 0, "failpoint-registry",
                        "DESIGN.md is missing; failpoint sites cannot be checked "
                        "against the documented registry"))
        return
    lines = design.read_text(encoding="utf-8").splitlines()
    documented: Dict[str, int] = {}
    inside = False
    block_found = False
    for number, line in enumerate(lines, start=1):
        if _REGISTRY_BEGIN in line:
            inside = True
            block_found = True
            continue
        if _REGISTRY_END in line:
            inside = False
            continue
        if inside:
            match = _REGISTRY_SITE_RE.match(line)
            if match:
                documented.setdefault(match.group("site"), number)
    if not block_found:
        findings.append(
            Finding(config.design_doc, 0, "failpoint-registry",
                    f"no `{_REGISTRY_BEGIN}` block; the failpoint registry must be "
                    "documented in DESIGN.md section 12"))
        return
    for site, (relative, number) in sorted(code_sites.items()):
        if site not in documented:
            findings.append(
                Finding(relative, number, "failpoint-registry",
                        f"failpoint site \"{site}\" is not documented in the DESIGN.md "
                        "failpoint registry; add it to the registry block"))
    for site, number in sorted(documented.items()):
        if site not in code_sites:
            findings.append(
                Finding(config.design_doc, number, "failpoint-registry",
                        f"documented failpoint site \"{site}\" does not exist in the "
                        "code; remove it from the registry or restore the site"))


# --------------------------------------------------------------------------
# Driver

def _source_files(base: pathlib.Path) -> Iterable[pathlib.Path]:
    if not base.is_dir():
        return []
    return sorted(
        path for path in base.rglob("*") if path.suffix in SOURCE_SUFFIXES and path.is_file()
    )


def _report_suppression_errors(
    relative: str, sup: Suppressions, findings: List[Finding]
) -> None:
    for number, message in sup.syntax_errors:
        finding = Finding(relative, number, "suppression-syntax", message)
        if finding not in findings:  # files are visited by more than one rule
            findings.append(finding)


def run(root: pathlib.Path, config: Config = DEFAULT_CONFIG,
        require_all: bool = False) -> List[Finding]:
    findings: List[Finding] = []
    check_unordered_iteration(root, config, findings)
    check_ambient_randomness(root, config, findings)
    check_raw_intrinsics(root, config, findings)
    check_solver_cancel(root, config, findings, require_all)
    check_status_pinned(root, config, findings, require_all)
    check_failpoint_registry(root, config, findings, require_all)
    unique = sorted(set(findings), key=lambda f: (f.path, f.line, f.rule, f.message))
    return unique


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="project root to scan (default: the repository containing this script)",
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="fail when a configured file is missing (CI mode)",
    )
    options = parser.parse_args(argv)
    root = options.root.resolve()
    if not root.is_dir():
        print(f"lint_invariants: not a directory: {root}", file=sys.stderr)
        return 2
    findings = run(root, require_all=options.require_all)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"lint_invariants: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
