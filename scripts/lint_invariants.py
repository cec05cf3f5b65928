#!/usr/bin/env python3
"""Source-invariant lint over the workspace's library code.

AST-free, line-based checks that keep the crate invariants the rustdoc
promises actually visible in the source:

1. **no-panic** — `.unwrap()` / `.expect(` are forbidden in non-test
   library code under `crates/*/src`. Library crates surface failures as
   `Result`s; a panic path needs an allowlist entry with a rationale.
   Test modules (`#[cfg(test)] mod ...`) are exempt.
2. **no-std-hash** — `std::collections::HashMap`/`HashSet` are forbidden
   in the deterministic-output crates (`merge`, `conform`): iteration
   order would leak into user-visible results. The sanctioned types are
   the `Fx` maps from `interop_model::fx` (lookups and accumulation
   only, snapshotted into `BTreeMap`/`BTreeSet` at output boundaries)
   and the `BTree` collections themselves.
3. **crate-docs** — every `crates/*/src/lib.rs` must open with crate
   docs (`//!` on line 1) and contain an `# Invariants` section: the
   contract each layer guarantees to the ones above.
4. **log-shrink** — in `crates/storage/src` library code, `set_len(`
   may appear only in `WalWriter::open` (recovery's torn-tail cut) and
   `WalWriter::append_buffered` (restoring a failed append). The log
   shrinks only by deleting whole sealed segments a durable snapshot
   covers; a file cut anywhere else could discard acknowledged frames.
   The enclosing function is the last `fn` seen inside the last
   column-0 `impl` header, so the check stays line-based.

Allowlist: `scripts/lint_allowlist.txt`. Each non-comment line is either

    <path>
    <path>	<substring>

(tab-separated). A bare path exempts the whole file from rule 1; a
path + substring exempts only flagged lines containing that substring.
Paths are repo-relative with forward slashes.

Exit status: 0 clean, 1 violations, 2 configuration problems.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRATES = ROOT / "crates"
ALLOWLIST = ROOT / "scripts" / "lint_allowlist.txt"

# Crates whose outputs must be byte-deterministic: hash-map iteration
# order must never reach a result, so std hash collections are banned
# outright (Fx maps + sorted drains are the sanctioned pattern).
DETERMINISTIC_CRATES = {"merge", "conform"}

# `.expect("` (string-literal message) is the Option/Result panic idiom;
# a bare `.expect(` also appears as Result-returning parser methods
# (`self.p.expect(&Tok::...)`) which are not panic paths.
PANIC_RE = re.compile(r"\.unwrap\(\)|\.expect\(\"")
STD_HASH_RE = re.compile(r"std::collections::(HashMap|HashSet)|(?<!Fx)\bHash(Map|Set)\s*<")

# The only (impl type, fn) pairs allowed to cut a file of the log.
LOG_SHRINK_SITES = {("WalWriter", "open"), ("WalWriter", "append_buffered")}
IMPL_RE = re.compile(r"^impl(?:<[^>]*>)?\s+(?:[\w:<>, ]+\s+for\s+)?(\w+)")
FN_RE = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?(?:const\s+)?fn\s+(\w+)")


def load_allowlist() -> tuple[set[str], list[tuple[str, str]]]:
    """Returns (whole-file exemptions, (path, substring) exemptions)."""
    files: set[str] = set()
    lines: list[tuple[str, str]] = []
    if not ALLOWLIST.exists():
        return files, lines
    for raw in ALLOWLIST.read_text().splitlines():
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        if "\t" in entry:
            path, substring = entry.split("\t", 1)
            lines.append((path.strip(), substring.strip()))
        else:
            files.add(entry)
    return files, lines


def strip_comment(line: str) -> str:
    """Drops a trailing `//` comment (string-blind — good enough for a
    text lint; flagged lines are human-reviewed via the allowlist)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def iter_non_test_lines(path: Path):
    """Yields (lineno, line) for lines outside `#[cfg(test)]` items.

    Tracks brace depth from the `{` that opens the cfg(test)-annotated
    item (mod or fn) until it closes.
    """
    pending = False  # saw #[cfg(test)], waiting for the item's `{`
    first = False  # no line of the item seen yet
    depth = 0  # >0 while inside the test item
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        code = strip_comment(line)
        if depth > 0:
            depth += code.count("{") - code.count("}")
            continue
        if pending:
            if "{" in code:
                depth = max(code.count("{") - code.count("}"), 0)
                pending = False
                continue
            if code.strip().endswith(";") or (first and code.strip().endswith(",")):
                pending = False  # e.g. `mod tests;`, or a one-line field
                continue
            # attribute stack (#[cfg(test)] #[derive(..)] ...) or a
            # multi-line signature: keep waiting
            first = first and code.strip().startswith("#[")
            continue
        if "#[cfg(test)]" in code:
            pending = first = True
            continue
        yield lineno, line, code


def check_panics(violations: list[str]) -> None:
    allowed_files, allowed_lines = load_allowlist()
    for path in sorted(CRATES.glob("*/src/**/*.rs")):
        rel = path.relative_to(ROOT).as_posix()
        if rel in allowed_files:
            continue
        for lineno, line, code in iter_non_test_lines(path):
            if not PANIC_RE.search(code):
                continue
            if any(p == rel and s in line for p, s in allowed_lines):
                continue
            violations.append(
                f"{rel}:{lineno}: panic path in library code "
                f"(`.unwrap()`/`.expect(`): {line.strip()}"
            )


def check_std_hash(violations: list[str]) -> None:
    for crate in sorted(DETERMINISTIC_CRATES):
        for path in sorted((CRATES / crate / "src").glob("**/*.rs")):
            rel = path.relative_to(ROOT).as_posix()
            for lineno, line, code in iter_non_test_lines(path):
                if STD_HASH_RE.search(code):
                    violations.append(
                        f"{rel}:{lineno}: std hash collection in deterministic-output "
                        f"crate (use Fx maps + sorted drains): {line.strip()}"
                    )


def check_log_shrink(violations: list[str]) -> None:
    for path in sorted((CRATES / "storage" / "src").glob("**/*.rs")):
        rel = path.relative_to(ROOT).as_posix()
        impl, func = None, None
        for lineno, line, code in iter_non_test_lines(path):
            if m := IMPL_RE.match(code):
                impl, func = m.group(1), None
            elif not code.startswith((" ", "\t")) and code.strip():
                impl = None  # a column-0 item outside any impl block
            if m := FN_RE.match(code):
                func = m.group(1)
            if "set_len(" in code and (impl, func) not in LOG_SHRINK_SITES:
                violations.append(
                    f"{rel}:{lineno}: `set_len(` outside WalWriter::open/append_buffered "
                    f"(the log shrinks only by pruning sealed segments): {line.strip()}"
                )


def check_crate_docs(violations: list[str]) -> None:
    for path in sorted(CRATES.glob("*/src/lib.rs")):
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text()
        first = text.splitlines()[0] if text else ""
        if not first.startswith("//!"):
            violations.append(f"{rel}:1: crate must open with `//!` crate docs")
        if "//! # Invariants" not in text:
            violations.append(f"{rel}: crate docs must contain an `# Invariants` section")


def main() -> int:
    if not CRATES.is_dir():
        print(f"lint_invariants: no crates/ directory under {ROOT}", file=sys.stderr)
        return 2
    violations: list[str] = []
    check_panics(violations)
    check_std_hash(violations)
    check_log_shrink(violations)
    check_crate_docs(violations)
    if violations:
        for v in violations:
            print(v)
        print(f"\nlint_invariants: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
