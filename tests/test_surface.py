"""Surface gate: every definition in ``src/repro`` is reached, or goes.

A name-level, transitive reachability pass over the source tree. The
roots are what a user or CI actually runs: ``src/repro/cli.py``, every
file under ``examples/`` and ``benchmarks/``, the inline scripts and
``python -m repro.x`` commands of ``.github/workflows/ci.yml``, and the
module ``Supervisor._spawn`` starts. Tests are *not* roots, and neither
is an export table: a name listed in ``__all__`` / ``_EXPORTS`` or
re-imported by a package ``__init__`` is offered, not used.

A function, class, module constant or class member is reached when a
reached piece of code mentions its name (as a variable, an attribute, a
keyword argument or an identifier-shaped string); class members also
need their class reached, dunder names come with their owner. Being
name-level it never flags a live definition, but it can miss a dead one
that shares its spelling with a live one.

What only tests use goes on :data:`ALLOWLIST` with its reason — test
oracles and observation points, nothing else. Anything new the pass
reports is deleted, not listed.

A second pass finds write-only state: an attribute a ``src/repro`` class
stores on ``self`` that no package or root code ever loads — a counter
nobody reads, a cached value nobody consults. ``self.x += 1`` is a store,
not a use. It is name-level too: an attribute that shares its spelling
with a live one elsewhere passes. Observation points only tests read go
on :data:`WRITE_ONLY_ALLOWLIST`.
"""

import ast
import pathlib
import re
import textwrap
import time

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]

#: Qualified name -> why it stays although only tests reach it.
ALLOWLIST = {
    "repro.core.rap.solve_minimax_bruteforce":
        "exhaustive oracle the Fox solver is checked against",
    "repro.core.monotone.is_non_decreasing":
        "the property the PAVA tests assert of every fit",
    "repro.core.balancer.LoadBalancer.in_safe_hold":
        "observation point of the safe-mode hold state",
    "repro.sim.engine.Simulator.enable_tracing":
        "golden traces: hashes the event order of a run",
    "repro.sim.engine.Simulator.trace_digest":
        "golden traces: the hash enable_tracing accumulates",
    "repro.sim.engine.Simulator.perf":
        "observation point of the event core (live, cancelled, compacted)",
    "repro.sim.engine.Simulator.run_until_idle":
        "drains a hand-built scenario without guessing its horizon",
    "repro.sim.fluid.FluidRegion.set_service_rate":
        "capacity shift for closed-loop controller tests",
    "repro.streams.merger.OrderedMerger.next_seq":
        "observation point of the merge frontier",
    "repro.streams.splitter.Splitter.inflight_count":
        "observation point of the retransmit window",
    "repro.proc.region._Reorderer.held":
        "observation point of the process region's reorder buffer",
    "repro.net.framing.MessageAssembler.pending_bytes":
        "observation point of a torn frame's buffered prefix",
    "repro.experiments.runner.RunResult.final_latency":
        "latency figure the overload and latency tests assert on",
    "repro.obs.hub.ObsReport.spans_of_kind":
        "filters a run's spans by kind in the obs and recovery tests",
}

#: ``module.Class.attribute`` -> why it stays although only tests load it.
WRITE_ONLY_ALLOWLIST: dict[str, str] = {}

_EXPORT_TABLES = {"__all__", "_EXPORTS"}
_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentions(nodes):
    """Every identifier a piece of code could be naming something by."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                found.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # getattr-by-name, dotted wrap targets, "-m" module paths.
                if _DOTTED.match(node.value):
                    found.update(node.value.split("."))
    return found


def _targets(stmt):
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and isinstance(
        stmt.target, ast.Name
    ):
        return [stmt.target.id]
    return []


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Definition:
    def __init__(self, module, name, body, owner=None):
        self.module, self.name, self.body, self.owner = module, name, body, owner
        scope = module if owner is None else owner.qualname
        self.qualname = f"{scope}.{name}"


def _definitions(module, tree, run_as_main):
    """Functions, classes, constants and class members of one module, and
    its loose statements (``<module>``: live once the module is)."""
    loose = []
    for stmt in tree.body:
        if isinstance(stmt, _DEFS):
            yield _Definition(module, stmt.name, [stmt])
        elif isinstance(stmt, ast.ClassDef):
            members = [
                s for s in stmt.body if isinstance(s, _DEFS) or _targets(s)
            ]
            rest = [s for s in stmt.body if s not in members]
            owner = _Definition(
                module, stmt.name,
                stmt.bases + stmt.keywords + stmt.decorator_list + rest,
            )
            yield owner
            for member in members:
                for name in _targets(member) or [member.name]:
                    yield _Definition(module, name, [member], owner)
        elif _targets(stmt):
            for name in _targets(stmt):
                if name not in _EXPORT_TABLES:
                    yield _Definition(module, name, [stmt])
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue  # an import alone uses nothing
        elif (
            isinstance(stmt, ast.If)
            and "__main__" in ast.dump(stmt.test)
            and not run_as_main
        ):
            continue  # a __main__ block nobody runs with -m
        else:
            loose.append(stmt)
    yield _Definition(module, "<module>", loose)


def load_sources(repo=REPO):
    """``{module: source}`` of the package, plus the root trees and the
    ``-m`` root modules."""
    src = repo / "src"
    sources = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        sources[".".join(parts).removesuffix(".__init__")] = path.read_text()
    ci = (repo / ".github/workflows/ci.yml").read_text()
    root_modules = set(re.findall(r"-m (repro[\w.]*)", ci))
    root_modules.update(
        re.findall(r'"-m", "(repro[\w.]*)"', sources["repro.proc.supervisor"])
    )
    roots = [
        ast.parse(path.read_text())
        for folder in ("examples", "benchmarks")
        for path in sorted((repo / folder).rglob("*.py"))
    ]
    roots += [
        ast.parse(textwrap.dedent(script))
        for script in re.findall(r"<<'EOF'\n(.*?)\n\s*EOF", ci, re.S)
    ]
    return sources, roots, root_modules


def unreached(sources, roots, root_modules, keep=()):
    """Qualified names no root reaches; ``keep`` names count as reached."""
    defs = []
    for module, text in sources.items():
        tree = ast.parse(text)
        if module == "repro.cli":
            roots = roots + [tree]
        defs.extend(_definitions(module, tree, module in root_modules))
    names = _mentions(roots)
    live_modules = set(root_modules)
    reached = set()
    grew = True
    while grew:
        grew = False
        for d in defs:
            if d in reached:
                continue
            if d.name == "<module>":
                if d.module not in live_modules:
                    continue
            elif d.owner is not None and d.owner not in reached:
                continue
            elif not (
                d.name in names or _dunder(d.name) or d.qualname in keep
            ):
                continue
            reached.add(d)
            parts = d.module.split(".")
            # A live module's packages are imported with it.
            live_modules.update(
                ".".join(parts[:i]) for i in range(1, len(parts) + 1)
            )
            names |= _mentions(d.body)
            grew = True
    return sorted(
        d.qualname for d in defs
        if d not in reached and d.name != "<module>"
        and (d.owner is None or d.owner in reached)
    )


class _StateUse(ast.NodeVisitor):
    """Collects ``self.x`` stores per package class, and every mention."""

    def __init__(self):
        self.stores = {}
        self.loads = set()
        self._scope = []

    def scan(self, tree, module=None):
        """Record ``tree``'s mentions; its stores too if it is ``module``."""
        self._scope = [module]
        self.visit(tree)

    def visit_ClassDef(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_Attribute(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.loads.add(node.attr)
        elif (
            self._scope[0] is not None
            and len(self._scope) > 1
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            qualname = ".".join([*self._scope, node.attr])
            self.stores.setdefault(node.attr, set()).add(qualname)
        self.generic_visit(node)

    def visit_Name(self, node):
        self.loads.add(node.id)

    def visit_keyword(self, node):
        if node.arg:
            self.loads.add(node.arg)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and _DOTTED.match(node.value):
            self.loads.update(node.value.split("."))


def write_only(sources, roots):
    """``module.Class.attribute`` for state stored on ``self`` and never
    loaded by the package or a root."""
    use = _StateUse()
    for module, text in sources.items():
        use.scan(ast.parse(text), module)
    for root in roots:
        use.scan(root)
    return sorted(
        qualname
        for name, qualnames in use.stores.items()
        if name not in use.loads
        for qualname in qualnames
    )


@pytest.fixture(scope="module")
def tree():
    return load_sources()


def test_every_definition_is_reached_or_allowlisted(tree):
    assert unreached(*tree, keep=ALLOWLIST) == []


def test_allowlist_is_short_reasoned_and_not_stale(tree):
    assert len(ALLOWLIST) <= 16
    assert all(len(reason) > 10 for reason in ALLOWLIST.values())
    # An entry that was deleted, or that a root reaches by now, must go.
    assert sorted(ALLOWLIST) == [
        name for name in unreached(*tree) if name in ALLOWLIST
    ]


def test_every_stored_attribute_is_loaded_or_allowlisted(tree):
    sources, roots, _ = tree
    found = write_only(sources, roots)
    assert [name for name in found if name not in WRITE_ONLY_ALLOWLIST] == []
    assert len(WRITE_ONLY_ALLOWLIST) <= 4
    assert all(len(reason) > 10 for reason in WRITE_ONLY_ALLOWLIST.values())
    assert sorted(WRITE_ONLY_ALLOWLIST) == [
        name for name in found if name in WRITE_ONLY_ALLOWLIST
    ]


PLANT = '''

def planted_entry(values):
    return _planted_helper(values) + PLANTED_LIMIT

def _planted_helper(values):
    return len(values)

PLANTED_LIMIT = 3

class PlantedThing:
    def planted_method(self):
        return 1
'''


def test_planted_definitions_are_reported_through_the_fixpoint(tree):
    sources, roots, root_modules = tree
    planted = dict(sources)
    planted["repro.util.ewma"] += PLANT
    found = unreached(planted, roots, root_modules, keep=ALLOWLIST)
    # The helper and the constant are mentioned — but only from the body
    # of a definition that is itself unreached. Members of an unreached
    # class are reported as the class.
    assert found == [
        "repro.util.ewma.PLANTED_LIMIT",
        "repro.util.ewma.PlantedThing",
        "repro.util.ewma._planted_helper",
        "repro.util.ewma.planted_entry",
    ]


def test_export_tables_do_not_count_as_uses(tree):
    sources, roots, root_modules = tree
    planted = dict(sources)
    planted["repro.util.ewma"] += (
        PLANT + '\n__all__ = ["planted_entry", "PlantedThing"]\n'
    )
    planted["repro.util"] += (
        "\nfrom repro.util.ewma import PlantedThing, planted_entry\n"
        '__all__ += ["planted_entry", "PlantedThing"]\n'
    )
    planted["repro"] = planted["repro"].replace(
        "_EXPORTS = {", '_EXPORTS = {\n    "planted_entry": "repro.util",', 1
    )
    assert '"planted_entry": "repro.util"' in planted["repro"]
    found = unreached(planted, roots, root_modules, keep=ALLOWLIST)
    assert "repro.util.ewma.planted_entry" in found
    assert "repro.util.ewma.PlantedThing" in found


PLANT_STATE = """

class PlantedCounter:
    def __init__(self):
        self.planted_total = 0
        self.planted_limit = 3

    def bump(self):
        self.planted_total += 1
        return self.planted_limit
"""


def test_planted_write_only_attribute_is_reported(tree):
    sources, roots, _ = tree
    planted = dict(sources)
    planted["repro.util.ewma"] += PLANT_STATE
    # Incremented but never read: a store, not a use. The limit is read.
    assert write_only(planted, roots) == [
        "repro.util.ewma.PlantedCounter.planted_total"
    ]


def test_pass_is_fast_enough_for_the_lint_job():
    started = time.perf_counter()
    sources, roots, root_modules = load_sources()
    unreached(sources, roots, root_modules, keep=ALLOWLIST)
    write_only(sources, roots)
    assert time.perf_counter() - started < 5.0
