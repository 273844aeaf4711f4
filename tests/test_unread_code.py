"""Code that nothing reads, found from the source of ``src/qdialogue`` by
the standard library's :mod:`ast` alone:

* every name a module imports, its lazy names included, is read there;
* every module-level ``_private`` name is read somewhere in the package;
* every public module-level name is read in the package, exported through
  ``qdialogue._HOMES``, or kept for a reason listed in :data:`KEPT`.

A name is read in a module where it is loaded, in code or in an annotation,
and a module's name ``X`` is read where another module imports it, lazily
or not, or loads ``module.X`` through ``from . import module``.
"""

import ast
from functools import lru_cache
from pathlib import Path

from qdialogue import _HOMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdialogue"

#: why the acceptance tests keep a name where nothing else reads it
CRITERION_1 = "tests/test_acceptance.py imports it from this module"
#: why the benchmark keeps a name where nothing else reads it
TRACER = "bench/tracer.py wraps or counts it at this lookup site"

#: (module, name) pairs that the package keeps though nothing in it reads
#: them there, each with the reason
KEPT = {
    **{("attacks", name): CRITERION_1 for name in (
        "CoinIZ", "DisturbPauli", "Fixed", "InterceptMeasure", "Passive", "UniformAll4")},
    ("protocol", "Mode"): CRITERION_1,
    ("qcore", "pauli_action_closed_form"): CRITERION_1,
    ("qcore", "pauli_compose"): CRITERION_1,
    ("analysis", "monte_carlo"): CRITERION_1,
    **{("analysis", name): TRACER for name in (
        "run_round", "RoundConfig", "apply_pauli_t_exact", "measure_t_branches",
        "bell_weights_exact")},
}


class Module:
    """What one module of the package imports, defines and reads."""

    def __init__(self, path: Path, stems: set[str]):
        self.name = path.stem
        tree = ast.parse(path.read_text())
        #: each name bound by an import, lazy ones included, to its source:
        #: the package module it comes from, or None
        self.imports = {}
        #: each name bound to a package module by ``from . import module``
        module_aliases = {}
        #: names loaded here, and (module, name) pairs read through a module
        self.reads, self.attribute_reads = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if node.level and node.module is None and alias.name in stems:
                        module_aliases[alias.asname or alias.name] = alias.name
                    source = (node.module or "__init__") if node.level else None
                    self.imports[alias.asname or alias.name] = (source, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.partition(".")[0]] = (None, None)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_names"
                  and isinstance(node.args[1], ast.Dict)):
                for name, home in ast.literal_eval(node.args[1]).items():
                    self.imports[name] = (home, name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = ast.unparse(node.value)
                if owner == "sys.modules[__name__]":
                    self.reads.add(node.attr)
                self.attribute_reads.add((owner, node.attr))
        self.attribute_reads = {(module_aliases[owner], attr)
                                for owner, attr in self.attribute_reads
                                if owner in module_aliases}
        self.defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                self.defined.update(n.id for target in targets for n in ast.walk(target)
                                    if isinstance(n, ast.Name))
        self.defined = {name for name in self.defined
                        if not (name.startswith("__") and name.endswith("__"))}


@lru_cache(maxsize=None)
def modules() -> dict[str, Module]:
    paths = sorted(SRC.glob("*.py"))
    stems = {path.stem for path in paths}
    return {path.stem: Module(path, stems) for path in paths}


def unread() -> dict[str, set]:
    """Per check, the (module, name) pairs that nothing reads, before
    :data:`KEPT` is applied."""
    mods = modules()
    # (module, name) pairs that some module imports or reads as an attribute
    taken = {(source, original) for module in mods.values()
             for source, original in module.imports.values() if source}
    taken |= {pair for module in mods.values() for pair in module.attribute_reads}
    found = {"import": set(), "private": set(), "public": set()}
    for module in mods.values():
        found["import"] |= {(module.name, alias) for alias in module.imports
                            if alias not in module.reads}
        for name in module.defined:
            if name in module.reads or (module.name, name) in taken:
                continue
            if name.startswith("_"):
                found["private"].add((module.name, name))
            elif _HOMES.get(name) != module.name:
                found["public"].add((module.name, name))
    return found


def test_every_import_is_read():
    orphans = unread()["import"] - KEPT.keys()
    assert not orphans, f"imported and never read: {sorted(orphans)}"


def test_every_private_name_is_read():
    orphans = unread()["private"]
    assert not orphans, f"private names that nothing reads: {sorted(orphans)}"


def test_every_public_name_is_read_exported_or_kept():
    orphans = unread()["public"] - KEPT.keys()
    assert not orphans, f"public names neither read, exported nor kept: {sorted(orphans)}"


def test_every_kept_name_is_needed():
    # a kept name that the package reads, or that is gone, leaves the list
    found = unread()
    stale = KEPT.keys() - found["import"] - found["public"]
    assert not stale, f"kept, but read or gone: {sorted(stale)}"
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {(node.module.rpartition(".")[2], alias.name)
                for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom) and node.module.startswith("qdialogue.")
                for alias in node.names}
    assert {pair for pair, why in KEPT.items() if why == CRITERION_1} <= imported
