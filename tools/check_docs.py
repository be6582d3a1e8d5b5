#!/usr/bin/env python
"""Verify that the documentation still matches the tree.

Five families of drift are caught, without running a simulation:

1. **Markdown links** — every relative ``[text](target)`` in the checked
   pages must point at a file that exists (resolved against the page's own
   directory; ``http(s)``/``mailto`` and pure ``#anchor`` links are
   skipped).
2. **Code references** — every backticked ``path/to/file.py`` must exist,
   and a ``path/to/file.py:symbol`` form must name a function or class
   actually defined in that file (checked with ``ast``, dotted names
   resolve methods).
3. **CLI verbs** — every ``python -m repro <verb>`` mentioned in the docs
   must be a real subcommand of :func:`repro.cli.build_parser`, and every
   real subcommand must be mentioned somewhere in the checked pages, so
   new verbs cannot ship undocumented.
4. **CLI flags** — every ``--flag`` on a ``python -m repro <verb> ...``
   command line in the docs must be a flag that verb actually defines
   (per-verb ``add_argument`` calls plus the ``_common_flags`` parents,
   read from the AST), and every flag in ``REQUIRED_DOCUMENTED_FLAGS``
   must be mentioned in some checked page — so load-bearing flags (the
   supervision surface: ``--journal``, ``--resume``, ``--deadline``, ...)
   cannot ship undocumented.  The ``run`` verb generates one flag per
   registered workload parameter at runtime; that flag set comes from
   :func:`repro.cli._workload_param_flags`.
5. **Scenario catalog** — the registered workload names
   (:func:`repro.workloads.workload_names`) and the ``## `name``` sections
   of ``docs/workloads.md`` must match exactly in both directions, and
   every ``python -m repro run <name>`` command line in the docs must name
   a registered workload — so a new workload cannot ship without a
   catalog entry and the catalog cannot describe a workload that no
   longer exists.

Usage:  python tools/check_docs.py    (exit 0 = clean, 1 = drift found)
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Pages whose links/references are verified (the verify skill included:
#: it lists every verb as a command line).
PAGES = ["README.md", "EXPERIMENTS.md", "DESIGN.md", *sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")
), ".claude/skills/verify/SKILL.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODEREF = re.compile(r"`([A-Za-z0-9_/.-]+\.py)(?::([A-Za-z0-9_.]+))?`")
_VERB = re.compile(r"python -m repro ([a-z][a-z0-9-]*)")
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")
_RUN_WORKLOAD = re.compile(r"python -m repro run ([A-Za-z0-9_-]+)")
_CATALOG_HEADING = re.compile(r"^## `([A-Za-z0-9_]+)`$", re.M)

#: The generated scenario catalog (checked against the registry).
WORKLOADS_DOC = "docs/workloads.md"

#: Flags that must be documented somewhere in the checked pages — the
#: supervised-execution surface (docs/robustness.md); a rename or removal
#: here without a doc update is drift.
REQUIRED_DOCUMENTED_FLAGS = {
    "sweep": ("--journal", "--resume", "--out", "--heartbeat-timeout"),
    "run": ("--deadline", "--max-events", "--progress", "--json", "--trace"),
}


def check_links(page: pathlib.Path, text: str) -> list[str]:
    """Relative markdown link targets must exist on disk."""
    errors = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (page.parent / path).exists():
            errors.append(f"{page.relative_to(ROOT)}: broken link -> {target}")
    return errors


def _defined_symbols(py: pathlib.Path) -> set[str]:
    """Top-level functions/classes/assignments plus ``Class.method`` names."""
    tree = ast.parse(py.read_text())
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(f"{node.name}.{item.name}")
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _resolve_code_ref(rel: str) -> "pathlib.Path | None":
    """Find the file a doc reference names.

    Repo-relative paths (``tools/gen_api_docs.py``) resolve directly;
    package-relative fragments (``repro/config.py`` in DESIGN.md's layout
    tree, or a bare ``core.py`` under its package heading) resolve against
    ``src/`` and then by unique suffix match anywhere in the tree.
    """
    direct = ROOT / rel
    if direct.exists():
        return direct
    under_src = ROOT / "src" / rel
    if under_src.exists():
        return under_src
    hits = [
        p for p in ROOT.rglob(rel.rsplit("/", 1)[-1])
        if str(p).endswith("/" + rel) and ".git" not in p.parts
    ]
    return hits[0] if len(hits) == 1 else None


def check_code_refs(page: pathlib.Path, text: str) -> list[str]:
    """Backticked ``file.py`` / ``file.py:symbol`` references must resolve."""
    errors = []
    for match in _CODEREF.finditer(text):
        rel, symbol = match.group(1), match.group(2)
        py = _resolve_code_ref(rel)
        if py is None:
            errors.append(f"{page.relative_to(ROOT)}: missing file -> {rel}")
            continue
        if symbol and symbol not in _defined_symbols(py):
            errors.append(
                f"{page.relative_to(ROOT)}: {rel} does not define {symbol!r}"
            )
    return errors


def cli_verbs() -> set[str]:
    """The subcommands of ``python -m repro``, read from the AST of
    ``src/repro/cli.py`` (``add_parser`` first arguments)."""
    tree = ast.parse((ROOT / "src" / "repro" / "cli.py").read_text())
    verbs = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            verbs.add(node.args[0].value)
    return verbs


#: ``_common_flags`` keyword -> the flags its parent parser contributes.
_COMMON_PARENT_FLAGS = {
    "backend": ("--backend",),
    "seed": ("--seed",),
    "nodes": ("--nodes", "--num-nodes"),
    "jobs": ("--jobs",),
}


def cli_verb_flags() -> dict:
    """Verb -> the ``--flags`` it defines, from the AST of ``cli.py``.

    Tracks ``<var> = sub.add_parser("<verb>", parents=[_common_flags(...)])``
    assignments, the shared flags implied by the non-``None``
    ``_common_flags`` keywords, and every later ``<var>.add_argument``.
    """
    tree = ast.parse((ROOT / "src" / "repro" / "cli.py").read_text())
    var_to_verb: dict = {}
    flags: dict = {verb: set() for verb in cli_verbs()}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "add_parser"
            and call.args
            and isinstance(call.args[0], ast.Constant)
        ):
            continue
        verb = call.args[0].value
        for kw in call.keywords:
            if kw.arg != "parents" or not isinstance(kw.value, ast.List):
                continue
            for parent in kw.value.elts:
                if not isinstance(parent, ast.Call):
                    continue
                for pkw in parent.keywords:
                    omitted = (
                        isinstance(pkw.value, ast.Constant)
                        and pkw.value.value is None
                    )
                    if pkw.arg in _COMMON_PARENT_FLAGS and not omitted:
                        flags[verb].update(_COMMON_PARENT_FLAGS[pkw.arg])
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                var_to_verb[tgt.id] = verb
    # Argument groups inherit their parser's verb:
    #   mode = ex.add_mutually_exclusive_group()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr
            in ("add_mutually_exclusive_group", "add_argument_group")
            and isinstance(node.value.func.value, ast.Name)
            and node.value.func.value.id in var_to_verb
        ):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    var_to_verb[tgt.id] = var_to_verb[node.value.func.value.id]
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and isinstance(node.func.value, ast.Name)
        ):
            continue
        verb = var_to_verb.get(node.func.value.id)
        if verb is None:
            continue
        for arg in node.args:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("--")
            ):
                flags[verb].add(arg.value)
    return flags


def check_workload_catalog(corpus: str) -> list[str]:
    """Registry and scenario catalog must agree in both directions, and
    every ``python -m repro run <name>`` in the docs must be runnable."""
    from repro.workloads import workload_names

    errors = []
    page = ROOT / WORKLOADS_DOC
    if not page.exists():
        return [f"scenario catalog missing: {WORKLOADS_DOC} "
                "(run tools/gen_api_docs.py)"]
    registered = set(workload_names())
    documented = set(_CATALOG_HEADING.findall(page.read_text()))
    for name in sorted(registered - documented):
        errors.append(
            f"workload {name!r} is registered but missing from "
            f"{WORKLOADS_DOC} (run tools/gen_api_docs.py)"
        )
    for name in sorted(documented - registered):
        errors.append(
            f"{WORKLOADS_DOC} documents unknown workload {name!r} "
            "(run tools/gen_api_docs.py)"
        )
    for name in sorted(set(_RUN_WORKLOAD.findall(corpus))):
        if name.startswith("--"):
            continue
        if name not in registered:
            errors.append(
                f"docs invoke 'python -m repro run {name}' but no such "
                "workload is registered"
            )
    return errors


def check_command_flags(rel: str, text: str, verb_flags: dict) -> list[str]:
    """Flags on doc command lines must exist on the verb they are passed to."""
    errors = []
    # Re-join backslash-continued command lines before scanning.
    joined = re.sub(r"\\\s*\n\s*", " ", text)
    for line in joined.splitlines():
        match = _VERB.search(line)
        if not match or match.group(1) not in verb_flags:
            continue
        known = verb_flags[match.group(1)]
        for flag in _FLAG.findall(line[match.end():]):
            if flag not in known:
                errors.append(
                    f"{rel}: verb {match.group(1)!r} has no flag {flag}"
                )
    return errors


def main() -> int:
    from repro.cli import _workload_param_flags

    errors: list[str] = []
    verbs = cli_verbs()
    verb_flags = cli_verb_flags()
    # The run verb's per-workload parameter flags come from the registry.
    verb_flags["run"].update(
        "--" + name.replace("_", "-") for name in _workload_param_flags()
    )
    mentioned: set[str] = set()
    all_text = []
    for rel in PAGES:
        page = ROOT / rel
        if not page.exists():
            errors.append(f"checked page missing: {rel}")
            continue
        text = page.read_text()
        all_text.append(text)
        errors += check_links(page, text)
        errors += check_code_refs(page, text)
        errors += check_command_flags(rel, text, verb_flags)
        for match in _VERB.finditer(text):
            verb = match.group(1)
            mentioned.add(verb)
            if verb not in verbs:
                errors.append(f"{rel}: unknown CLI verb -> {verb}")
        # A verb listed as bare `code` (e.g. the README's CLI-surface list)
        # also counts as documented.
        for verb in verbs:
            if f"`{verb}`" in text:
                mentioned.add(verb)
    for verb in sorted(verbs - mentioned):
        errors.append(f"CLI verb {verb!r} is not documented in any checked page")
    corpus = "\n".join(all_text)
    errors += check_workload_catalog(corpus)
    for verb, required in sorted(REQUIRED_DOCUMENTED_FLAGS.items()):
        for flag in required:
            if flag not in verb_flags.get(verb, set()):
                errors.append(
                    f"required flag {flag} is no longer defined by the "
                    f"{verb!r} verb (update REQUIRED_DOCUMENTED_FLAGS?)"
                )
            elif flag not in corpus:
                errors.append(
                    f"required {verb!r} flag {flag} is not documented in "
                    "any checked page"
                )
    if errors:
        for err in errors:
            print(err)
        print(f"check_docs: {len(errors)} problem(s)")
        return 1
    print(f"check_docs: {len(PAGES)} pages, {len(verbs)} CLI verbs: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
