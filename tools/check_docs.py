#!/usr/bin/env python3
"""CI docs gate: broken intra-repo links and a stale figure-binary table.

Checks, relative to the repo root (the script's parent directory):

  1. Every relative markdown link in README.md and docs/*.md points at a
     file or directory that exists. External links (http/https/mailto) and
     pure fragments (#...) are skipped; a fragment on a relative link is
     stripped before the existence check.

  2. README.md's bench table stays in sync with bench/: every bench/*.cc
     translation unit must be mentioned as its binary name (bench_<stem>),
     and every `bench_...` name mentioned in README.md must still have a
     source file. This keeps the figure-to-binary map trustworthy as bench
     binaries are added or renamed.

  3. README.md's "Algorithm registry" table stays in sync with the engine
     registry: every canonical name registered in
     src/engine/algorithms.cc (the `info.name = "..."` lines — the
     registrations follow that fixed shape for exactly this check) must
     appear as a `name` row in the table, and every row must still be
     registered. Aliases are checked the same way against the row's alias
     column, and the row's "Prefix memo" mark (`yes`) against the
     registration's `info.prefix_nested = true;` line.

  4. README.md's "Query family" table stays in sync with the engine's
     query vocabulary: every QueryKind spelling returned by
     QueryKindName() in src/engine/solve_request.h (the
     `case QueryKind::...: return "...";` lines) must appear as a
     `name` row under the "## Query family" heading, and every row must
     still be a QueryKind. Adding a kind without documenting it — or
     documenting a kind that no longer exists — fails CI.

  5. README.md's flag tables stay in sync with the binaries, both
     directions: every flag declared via `args->Declare("...")` must
     appear as a `--flag` row under the binary's heading, and every row
     must still be declared. "## Serving" documents holimd_cli's own flags
     (tools/holimd_cli.cc); "## CLI" documents every flag holim_cli
     accepts — tools/holim_cli.cc, the shared DeclareCommonFlags /
     DeclareCommonOptions in src/bench_support/experiment.cc, and
     `--help`.

  6. Every `*.md` file named in a code comment under src/, bench/, tools/,
     tests/ or examples/ exists at the repo root, in docs/, or next to the
     commenting file, so a comment never sends its reader to a document
     that does not exist.

Exit 1 with a per-finding message on any violation.

Usage: python3 tools/check_docs.py
"""

import io
import pathlib
import re
import sys
import tokenize

REPO = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — excluding images' inner parens handled well enough for
# repo docs; fenced code blocks are stripped first so example links and
# shell snippets don't count.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
BENCH_NAME_RE = re.compile(r"\bbench_[A-Za-z0-9_]+\b")
# `src/bench_support/` is the harness directory, not a binary.
NOT_BINARIES = {"bench_support"}


def doc_files():
    files = []
    readme = REPO / "README.md"
    if readme.exists():
        files.append(readme)
    docs = REPO / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return files


def check_links(path, text, failures):
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            try:
                shown = resolved.relative_to(REPO)
            except ValueError:  # link escapes the repo root
                shown = resolved
            failures.append(f"{path.relative_to(REPO)}: broken link "
                            f"'{target}' (no {shown})")


def check_bench_table(readme_text, failures):
    bench_dir = REPO / "bench"
    sources = {f"bench_{src.stem}" for src in bench_dir.glob("*.cc")
               if src.stem != "common"}
    mentioned = set(BENCH_NAME_RE.findall(readme_text)) - NOT_BINARIES
    for missing in sorted(sources - mentioned):
        failures.append(f"README.md: bench binary '{missing}' "
                        "(from bench/) is not documented in the bench table")
    for stale in sorted(mentioned - sources):
        failures.append(f"README.md: mentions '{stale}' but bench/ has no "
                        "such source — remove or rename the table row")


REGISTRY_SOURCE = REPO / "src" / "engine" / "algorithms.cc"
REG_NAME_RE = re.compile(r'info\.name = "([^"]+)"')
REG_ALIASES_RE = re.compile(r'info\.aliases = \{([^}]*)\}')
REG_NESTED_RE = re.compile(r'info\.prefix_nested = (true);')
REGISTRY_HEADING = "## Algorithm registry"


def registered_algorithms():
    """({canonical name: set(aliases)}, set of prefix-nested names)
    registered in engine/algorithms.cc. Aliases and the prefix_nested mark
    are attributed to the name whose `info.name` line precedes them (each
    registration block sets name first)."""
    text = "\n".join(
        line for line in
        REGISTRY_SOURCE.read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith("//"))
    registered = {}
    nested = set()
    current = None
    combined = re.compile(f"{REG_NAME_RE.pattern}|{REG_ALIASES_RE.pattern}"
                          f"|{REG_NESTED_RE.pattern}")
    for m in combined.finditer(text):
        if m.group(1) is not None:
            current = m.group(1)
            registered[current] = set()
        elif current is None:
            continue
        elif m.group(2) is not None:
            registered[current].update(re.findall(r'"([^"]+)"', m.group(2)))
        else:
            nested.add(current)
    return registered, nested


def check_registry_table(readme_text, failures):
    if not REGISTRY_SOURCE.exists():
        failures.append(f"{REGISTRY_SOURCE.relative_to(REPO)} missing — the "
                        "registry/README sync check has nothing to parse")
        return
    registered, nested = registered_algorithms()
    if not registered:
        failures.append("src/engine/algorithms.cc: no `info.name = \"...\"` "
                        "registrations found — registration shape changed?")
        return
    # The table rows under the "## Algorithm registry" heading: first cell
    # is `name`, second is the alias list (backticked, or "—"), the last
    # is the prefix-memo mark ("yes", or "—"). Aliases are checked per row,
    # so an alias filed under the wrong algorithm fails too.
    section = readme_text.split(REGISTRY_HEADING, 1)
    if len(section) < 2:
        failures.append(f"README.md: no '{REGISTRY_HEADING}' section — the "
                        "registry table must document every registered "
                        "algorithm")
        return
    body = section[1].split("\n## ", 1)[0]
    documented = {}
    marked = set()
    for line in body.splitlines():
        m = re.match(r"\|\s*`([^`]+)`\s*\|([^|]*)\|", line)
        if not m:
            continue
        documented[m.group(1)] = set(re.findall(r"`([^`]+)`", m.group(2)))
        if line.rstrip().rstrip("|").rsplit("|", 1)[-1].strip() == "yes":
            marked.add(m.group(1))
    for missing in sorted(registered.keys() - documented.keys()):
        failures.append(f"README.md: registered algorithm '{missing}' is "
                        "not documented in the Algorithm registry table")
    for stale in sorted(documented.keys() - registered.keys()):
        failures.append(f"README.md: Algorithm registry table row "
                        f"'{stale}' is not registered in "
                        "src/engine/algorithms.cc")
    for name in sorted(registered.keys() & documented.keys()):
        if registered[name] != documented[name]:
            failures.append(
                f"README.md: Algorithm registry row '{name}' documents "
                f"aliases {sorted(documented[name])} but "
                f"src/engine/algorithms.cc registers "
                f"{sorted(registered[name])}")
    for name in sorted((nested ^ marked) & documented.keys()):
        failures.append(
            f"README.md: Algorithm registry row '{name}' "
            f"{'lacks' if name in nested else 'carries'} the prefix-memo "
            f"mark, but src/engine/algorithms.cc "
            f"{'sets' if name in nested else 'does not set'} "
            "`info.prefix_nested = true;`")


QUERY_SOURCE = REPO / "src" / "engine" / "solve_request.h"
QUERY_NAME_RE = re.compile(r'case QueryKind::k\w+:\s*return "([^"]+)";')
QUERY_HEADING = "## Query family"


def check_query_table(readme_text, failures):
    if not QUERY_SOURCE.exists():
        failures.append(f"{QUERY_SOURCE.relative_to(REPO)} missing — the "
                        "query-vocabulary/README sync check has nothing to "
                        "parse")
        return
    declared = set(QUERY_NAME_RE.findall(
        QUERY_SOURCE.read_text(encoding="utf-8")))
    if not declared:
        failures.append("src/engine/solve_request.h: no QueryKindName "
                        "`case ...: return \"...\";` spellings found — "
                        "the naming shape changed?")
        return
    section = readme_text.split(QUERY_HEADING, 1)
    if len(section) < 2:
        failures.append(f"README.md: no '{QUERY_HEADING}' section — the "
                        "query table must document every QueryKind")
        return
    body = section[1].split("\n## ", 1)[0]
    documented = set()
    for line in body.splitlines():
        m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if m:
            documented.add(m.group(1))
    for missing in sorted(declared - documented):
        failures.append(f"README.md: query kind '{missing}' "
                        "(QueryKindName in src/engine/solve_request.h) is "
                        "not documented in the Query family table")
    for stale in sorted(documented - declared):
        failures.append(f"README.md: Query family table row '{stale}' is "
                        "not a QueryKind in src/engine/solve_request.h")


FLAG_DECLARE_RE = re.compile(r'args->Declare\("([^"]+)"')
# (heading, binary, declaring sources, flags accepted without a Declare).
FLAG_TABLES = (
    ("## Serving", "holimd_cli", (REPO / "tools" / "holimd_cli.cc",), ()),
    ("## CLI", "holim_cli",
     (REPO / "tools" / "holim_cli.cc",
      REPO / "src" / "bench_support" / "experiment.cc"), ("help",)),
)


def check_flag_table(readme_text, heading, binary, sources, implicit,
                     failures):
    """README's flag table under `heading` vs the flags `binary` declares
    in `sources`, both directions — same contract as the registry/query
    tables: a flag added without a row, or a row whose flag is gone, fails
    CI."""
    declared = set(implicit)
    for source in sources:
        if not source.exists():
            failures.append(f"{source.relative_to(REPO)} missing — the "
                            f"{binary} flag-table sync check has nothing "
                            "to parse")
            return
        found = FLAG_DECLARE_RE.findall(source.read_text(encoding="utf-8"))
        if not found:
            failures.append(f"{source.relative_to(REPO)}: no "
                            "`args->Declare(\"...\")` flags found — the "
                            "declaration shape changed?")
            return
        declared.update(found)
    section = readme_text.split(heading, 1)
    if len(section) < 2:
        failures.append(f"README.md: no '{heading}' section — its flag "
                        f"table must document every {binary} flag")
        return
    body = section[1].split("\n## ", 1)[0]
    documented = set()
    for line in body.splitlines():
        m = re.match(r"\|\s*`--([^`]+)`\s*\|", line)
        if m:
            documented.add(m.group(1))
    for missing in sorted(declared - documented):
        failures.append(f"README.md: {binary} flag '--{missing}' is not "
                        f"documented in the '{heading}' flag table")
    for stale in sorted(documented - declared):
        failures.append(f"README.md: '{heading}' flag table row "
                        f"'--{stale}' is not a {binary} flag")


CODE_DIRS = ("src", "bench", "tools", "tests", "examples")
CPP_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
# String and char literals are matched (and skipped) so a "//" inside one
# never starts a comment.
CPP_TOKEN_RE = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])\'|'
                          r"(//[^\n]*|/\*.*?\*/)", re.DOTALL)
MD_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")


def comments(path):
    """The comment text of one C++ or Python source file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        return [tok.string for tok in tokens if tok.type == tokenize.COMMENT]
    return [m.group(1) for m in CPP_TOKEN_RE.finditer(text) if m.group(1)]


def check_comment_docs(failures):
    for top in CODE_DIRS:
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix not in CPP_SUFFIXES | {".py"}:
                continue
            for comment in comments(path):
                for name in MD_NAME_RE.findall(comment):
                    if any((base / name).exists()
                           for base in (REPO, REPO / "docs", path.parent)):
                        continue
                    failures.append(f"{path.relative_to(REPO)}: comment "
                                    f"cites '{name}', which is not at the "
                                    "repo root, in docs/, or next to the "
                                    "file")


def main():
    failures = []
    files = doc_files()
    if not files:
        failures.append("README.md missing at repo root")
    readme_text = None
    for path in files:
        raw = path.read_text(encoding="utf-8")
        check_links(path, FENCE_RE.sub("", raw), failures)
        if path.name == "README.md":
            readme_text = raw  # bench names inside code fences count
    if readme_text is not None:
        check_bench_table(readme_text, failures)
        check_registry_table(readme_text, failures)
        check_query_table(readme_text, failures)
        for heading, binary, sources, implicit in FLAG_TABLES:
            check_flag_table(readme_text, heading, binary, sources, implicit,
                             failures)
    check_comment_docs(failures)

    if failures:
        print("docs-gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"docs-gate passed ({len(files)} files checked).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
