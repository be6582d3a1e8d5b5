#!/usr/bin/env python
"""Generate docs/api.md and docs/workloads.md from the source tree.

``docs/api.md`` is a compact API reference rendered from docstrings (no
external dependencies — offline-friendly).  ``docs/workloads.md`` is the
scenario catalog rendered from the :mod:`repro.workloads` registry: each
registered :class:`WorkloadSpec` carries its own description, DAG sketch
and example invocation, and its config fields carry the parameter docs and
bounds, so the catalog can never describe a workload the registry does not
have.  ``tools/check_docs.py`` enforces
the converse (no registered workload missing from the catalog).

Modules listed in ``STRICT_PACKAGES`` must document every public symbol —
a missing module/class/function/method docstring there fails the build.

Usage:  python tools/gen_api_docs.py [api_out] [workloads_out]
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Dotted prefixes where every public symbol must carry a docstring.
STRICT_PACKAGES = ("repro.api", "repro.explore", "repro.supervise",
                   "repro.sweep", "repro.workloads")


def first_line(doc: str | None) -> str:
    if not doc:
        return ""
    return doc.strip().splitlines()[0].rstrip(".")


def signature(node: ast.FunctionDef) -> str:
    args = []
    a = node.args
    for arg in a.posonlyargs + a.args:
        args.append(arg.arg)
    if a.vararg:
        args.append("*" + a.vararg.arg)
    for arg in a.kwonlyargs:
        args.append(arg.arg)
    if a.kwarg:
        args.append("**" + a.kwarg.arg)
    # Drop self/cls for readability.
    if args and args[0] in ("self", "cls"):
        args = args[1:]
    return f"({', '.join(args)})"


def render_module(path: pathlib.Path, missing: list[str]) -> list[str]:
    rel = path.relative_to(SRC.parent)
    modname = str(rel.with_suffix("")).replace("/", ".")
    if modname.endswith(".__init__"):
        modname = modname[: -len(".__init__")]
    strict = modname.startswith(STRICT_PACKAGES)
    tree = ast.parse(path.read_text())
    lines = [f"### `{modname}`", ""]
    moddoc = first_line(ast.get_docstring(tree))
    if moddoc:
        lines += [moddoc + ".", ""]
    elif strict:
        missing.append(f"{modname}: module docstring")
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            doc = first_line(ast.get_docstring(node))
            if strict and not doc:
                missing.append(f"{modname}.{node.name}")
            lines.append(f"- **class `{node.name}`** — {doc}")
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ):
                    itemdoc = first_line(ast.get_docstring(item))
                    if strict and not itemdoc:
                        missing.append(f"{modname}.{node.name}.{item.name}")
                    lines.append(
                        f"  - `{item.name}{signature(item)}` — {itemdoc}"
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            doc = first_line(ast.get_docstring(node))
            if strict and not doc:
                missing.append(f"{modname}.{node.name}")
            lines.append(
                f"- `{node.name}{signature(node)}` — {doc}"
            )
    lines.append("")
    return lines


def render_workload(spec) -> list[str]:
    """One catalog section: prose, DAG sketch, parameter table, example."""
    lines = [f"## `{spec.name}`", "", spec.description.rstrip(".") + ".", ""]
    if spec.details:
        lines += [spec.details.strip(), ""]
    if spec.dag:
        lines += ["```", spec.dag.strip("\n"), "```", ""]
    lines += ["| parameter | default | accepts | description |",
              "|---|---|---|---|"]
    for param in spec.params():
        default = "*required*" if param.required else f"`{param.default!r}`"
        bounds = f"`{param.bounds()}`" if param.bounds() else ""
        lines.append(f"| `--{param.name.replace('_', '-')}` | {default} | "
                     f"{bounds} | {param.doc} |")
    lines.append("")
    if spec.example:
        lines += ["Example:", "", "```console",
                  f"$ {spec.example.strip()}", "```", ""]
    if spec.tags:
        lines += ["Tags: " + ", ".join(f"`{t}`" for t in spec.tags), ""]
    return lines


def workloads_catalog() -> str:
    """Render the scenario catalog from the live workload registry."""
    sys.path.insert(0, str(SRC.parent))
    from repro.workloads import workload_specs

    specs = workload_specs()
    lines = [
        "# Scenario catalog",
        "",
        "Auto-generated from the workload registry by",
        "`tools/gen_api_docs.py` — do not edit by hand; re-run the script",
        "after registering or changing a workload.  `tools/check_docs.py`",
        "fails the build if this catalog and the registry disagree in",
        "either direction.",
        "",
        "Every workload below is one `WorkloadSpec` registered with",
        "`src/repro/workloads/registry.py:register`.  List them with",
        "`python -m repro workloads --params`, run one with",
        "`python -m repro run <name>`, sweep grids of them with",
        "`python -m repro sweep taskbench`, inject faults with",
        "`python -m repro chaos --workload <name>`, and explore schedules",
        "with `python -m repro explore <name>`.  The common flags",
        "`--backend`, `--nodes`, and `--seed` apply to every workload; the",
        "per-workload flags are listed in each parameter table.  See",
        "[architecture.md](architecture.md) for how the workloads layer",
        "fits into the stack.",
        "",
        f"{len(specs)} registered workloads: "
        + ", ".join(f"[`{s.name}`](#{s.name})" for s in specs) + ".",
        "",
    ]
    for spec in specs:
        lines += render_workload(spec)
    return "\n".join(lines).rstrip() + "\n"


def main(api_out: str, workloads_out: str) -> None:
    lines = [
        "# API reference",
        "",
        "Auto-generated from docstrings by `tools/gen_api_docs.py` — do not",
        "edit by hand; re-run the script after changing public APIs.",
        "",
    ]
    missing: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name.startswith("_") and path.name != "__init__.py":
            continue
        lines += render_module(path, missing)
    if missing:
        for entry in missing:
            print(f"missing docstring: {entry}", file=sys.stderr)
        sys.exit(1)
    pathlib.Path(api_out).write_text("\n".join(lines))
    print(f"wrote {api_out} ({len(lines)} lines)")
    catalog = workloads_catalog()
    pathlib.Path(workloads_out).write_text(catalog)
    print(f"wrote {workloads_out} ({len(catalog.splitlines())} lines)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "docs/api.md",
         sys.argv[2] if len(sys.argv) > 2 else "docs/workloads.md")
