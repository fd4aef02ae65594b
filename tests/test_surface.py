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

A third pass finds options nobody sets: a parameter with a default of a
``src/repro`` function or method, or an init field with a default of a
``src/repro`` dataclass, for which no package or root code passes a value
other than the default — by keyword, by position (matched by name
against every definition so spelled), through ``dataclasses.replace`` or
a ``**{"name": ...}`` mapping, or by an attribute store. Passing a bare
name that is itself an option of the enclosing function only forwards
it, so it counts once that option does. State kept on a dataclass is
``field(init=False)``, not an option. Every name ``benchmarks/e2e``
mentions counts as set: that harness is frozen. An option only tests set
becomes a constant; what stays goes on :data:`OPTIONS_ALLOWLIST`.
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
    "repro.proc.region.ProcessRegion.held":
        "observation point of the process region's reorder buffer",
    "repro.net.framing.MessageAssembler.pending_bytes":
        "observation point of a torn frame's buffered prefix",
    "repro.experiments.runner.RunResult.final_latency":
        "latency figure the overload and latency tests assert on",
    "repro.obs.hub.ObsReport.spans_of_kind":
        "filters a run's spans by kind in the obs and recovery tests",
    "repro.analysis.shape.assert_monotone":
        "shape assertion beside assert_faster and assert_between; the figure "
        "claims state their two monotone checks as predicates",
}

#: ``module.Class.attribute`` -> why it stays although only tests load it.
WRITE_ONLY_ALLOWLIST: dict[str, str] = {}

#: Qualified option name -> why it stays although only tests set it.
OPTIONS_ALLOWLIST = {
    "repro.faults.schedule.FaultSchedule.stalls":
        "connection stalls and flaps the recovery and process-fault tests "
        "inject; no root schedules one yet",
    "repro.proc.region.ProcessRegion.__init__.host":
        "deployment setting: the address the region listens on and its "
        "workers dial",
    "repro.streams.operators.SinkOp.__init__.on_tuple":
        "observation point tests read a graph's output through",
    "repro.analysis.shape.assert_monotone.increasing":
        "see ALLOWLIST's assert_monotone",
    "repro.analysis.shape.assert_monotone.tolerance":
        "see ALLOWLIST's assert_monotone",
    "repro.analysis.shape.assert_monotone.context":
        "see ALLOWLIST's assert_monotone",
}

#: The benchmark harness: frozen, so every name it mentions stays.
FROZEN = "benchmarks/e2e"

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
    roots = []
    for folder in ("examples", "benchmarks"):
        for path in sorted((repo / folder).rglob("*.py")):
            root = ast.parse(path.read_text())
            root.frozen = path.is_relative_to(repo / FROZEN)
            roots.append(root)
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


def _called(func):
    """The name a call's target is spelled with (``a.b.c(...)`` -> ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_dataclass(cls):
    return any(
        _called(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in cls.decorator_list
    )


def _field(stmt):
    """``(init, default)`` of a dataclass field; ``default`` is ``None``
    for a required field, the ``field(...)`` call for a factory."""
    value = stmt.value
    if isinstance(value, ast.Call) and _called(value.func) == "field":
        given = {kw.arg: kw.value for kw in value.keywords}
        init = given.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False, None
        if "default" in given:
            return True, given["default"]
        return True, value if "default_factory" in given else None
    return True, value


class _Option:
    def __init__(self, qualname, owner, default, *, field=False):
        self.qualname, self.owner, self.field = qualname, owner, field
        self.name = qualname.rsplit(".", 1)[1]
        self.default = ast.dump(default)


class _Signatures:
    """Every option of the package, and every way a call names one.

    A call's target is known by its spelling: ``owner`` is a function's
    name, a method's name, or for ``__init__`` and dataclass fields the
    class's name. ``positional[owner]`` lists each matching definition's
    positional parameter names, ``self`` / ``cls`` dropped.
    """

    def __init__(self, sources):
        self.options = []
        self.positional = {}
        self.bases = {}
        self.params = {}  # id(def node) -> {parameter: qualname | None}
        #: Module constants by name, as passing one passes its value
        #: (``None`` where two modules spell one name differently).
        self.constants = {}
        self.trees = [ast.parse(text) for text in sources.values()]
        for module, tree in zip(sources, self.trees):
            for stmt in tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Constant)
                ):
                    for name in _targets(stmt):
                        value = ast.dump(stmt.value)
                        known = self.constants.setdefault(name, value)
                        if known != value:
                            self.constants[name] = None
                if isinstance(stmt, _DEFS):
                    self._add_def(stmt, module, stmt.name, bound=False)
                elif isinstance(stmt, ast.ClassDef):
                    self._add_class(stmt, module)

    def _add_class(self, cls, module):
        scope = f"{module}.{cls.name}"
        self.bases[cls.name] = [_called(b) for b in cls.bases]
        if _is_dataclass(cls):
            fields = []
            for stmt in cls.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.dump(stmt.annotation)
                ):
                    continue
                init, default = _field(stmt)
                if init:
                    fields.append(stmt.target.id)
                if default is not None:
                    self.options.append(_Option(
                        f"{scope}.{stmt.target.id}", cls.name, default,
                        field=True,
                    ))
            self.positional.setdefault(cls.name, []).append(fields)
        for stmt in cls.body:
            if isinstance(stmt, _DEFS):
                static = any(
                    _called(d) == "staticmethod" for d in stmt.decorator_list
                )
                owner = cls.name if stmt.name == "__init__" else stmt.name
                self._add_def(stmt, scope, owner, bound=not static)

    def _add_def(self, node, scope, owner, *, bound):
        args = node.args
        ordered = args.posonlyargs + args.args
        defaults = dict(zip(ordered[::-1], args.defaults[::-1]))
        defaults.update(
            (arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d
        )
        params = {}
        for arg in ordered + args.kwonlyargs:
            params[arg.arg] = None
            if arg in defaults:
                qualname = f"{scope}.{node.name}.{arg.arg}"
                params[arg.arg] = qualname
                self.options.append(_Option(qualname, owner, defaults[arg]))
        self.params[id(node)] = params
        positional = [a.arg for a in ordered][1 if bound else 0:]
        self.positional.setdefault(owner, []).append(positional)

    def owners(self, name):
        """``name`` and every base class it inherits options from."""
        found, todo = [], [name]
        while todo:
            owner = todo.pop()
            if owner not in found:
                found.append(owner)
                todo.extend(b for b in self.bases.get(owner, ()) if b)
        return found


_REPLACE = object()  # owner of a ``dataclasses.replace`` keyword


class _OptionUse(ast.NodeVisitor):
    """Every value a piece of code passes for an option, by name.

    A use is ``(owner, name, value, condition)``: ``owner`` is a spelling
    from :class:`_Signatures`, ``_REPLACE``, or ``None`` when the target
    is unknown; ``value`` is the passed expression's dump (``None`` for an
    attribute store); ``condition`` is the qualname of the enclosing
    option a bare-name value only forwards, else ``None``.
    """

    def __init__(self, signatures):
        self.sig = signatures
        self.uses = []
        self._classes = []
        self._scopes = []

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        self._scopes.append(self.sig.params.get(id(node), {}))
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _use(self, owners, name, value):
        condition = None
        dump = None if value is None else ast.dump(value)
        if isinstance(value, ast.Name):
            for params in reversed(self._scopes):
                if value.id in params:
                    condition = params[value.id]
                    break
            else:
                dump = self.sig.constants.get(value.id) or dump
        for owner in owners:
            self.uses.append((owner, name, dump, condition))

    def _call_owners(self, func):
        name = _called(func)
        if name == "cls" and self._classes:
            name = self._classes[-1]
        elif (
            name == "__init__"
            and isinstance(func.value, ast.Call)
            and _called(func.value.func) == "super"
            and self._classes
        ):
            return self.sig.owners(self._classes[-1])[1:]
        if name in self.sig.positional:
            return self.sig.owners(name)
        return [None]

    def visit_Call(self, node):
        name = _called(node.func)
        if name == "replace":
            for kw in node.keywords:
                self._use([_REPLACE], kw.arg, kw.value)
        elif name == "setattr" and len(node.args) == 3:
            key = node.args[1]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self._use([None], key.value, node.args[2])
        else:
            owners = self._call_owners(node.func)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                for owner in owners:
                    for params in self.sig.positional.get(owner, ()):
                        if i < len(params):
                            self._use([owner], params[i], arg)
            for kw in node.keywords:
                if kw.arg is not None:
                    self._use(owners, kw.arg, kw.value)
                elif isinstance(kw.value, ast.Dict):
                    for key, value in zip(kw.value.keys, kw.value.values):
                        if isinstance(key, ast.Constant):
                            self._use(owners, key.value, value)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store) and not (
            isinstance(node.value, ast.Name) and node.value.id == "self"
        ):
            self._use([None], node.attr, None)
        self.generic_visit(node)


def unset_options(sources, roots, keep=()):
    """Qualified names of options no root passes a non-default value for.

    An option is a defaulted parameter of a package function or method,
    or a defaulted init field of a package dataclass. Package code and
    the roots of :func:`load_sources` are searched; tests are not. Every
    name ``benchmarks/e2e`` mentions counts as set: that harness is
    frozen. ``keep`` names count as set.
    """
    signatures = _Signatures(sources)
    use = _OptionUse(signatures)
    for tree in signatures.trees:
        use.visit(tree)
    frozen = set()
    for root in roots:
        use.visit(root)
        if getattr(root, "frozen", False):
            frozen |= _mentions([root])
    by_name = {}
    for owner, name, value, condition in use.uses:
        by_name.setdefault(name, []).append((owner, value, condition))
    options = signatures.options
    used = {o.qualname for o in options if o.name in frozen or o.qualname in keep}
    grew = True
    while grew:
        grew = False
        for option in options:
            if option.qualname in used:
                continue
            if any(
                value != option.default
                and (condition is None or condition in used)
                and (
                    owner is None
                    or owner == option.owner
                    or (owner is _REPLACE and option.field)
                )
                for owner, value, condition in by_name.get(option.name, ())
            ):
                used.add(option.qualname)
                grew = True
    return sorted({o.qualname for o in options} - used)


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


def test_every_option_is_set_by_a_root_or_allowlisted(tree):
    sources, roots, _ = tree
    assert unset_options(sources, roots, keep=OPTIONS_ALLOWLIST) == []


def test_options_allowlist_is_short_reasoned_and_not_stale(tree):
    sources, roots, _ = tree
    assert len(OPTIONS_ALLOWLIST) <= 8
    assert all(len(reason) > 10 for reason in OPTIONS_ALLOWLIST.values())
    assert sorted(OPTIONS_ALLOWLIST) == [
        name for name in unset_options(sources, roots)
        if name in OPTIONS_ALLOWLIST
    ]


PLANT_OPTIONS = """

def planted_call(values, *, planted_scale=1.0, planted_kw=2, planted_pos=3):
    return values

def planted_forward(values, planted_scale=1.0):
    return planted_call(values, planted_scale=planted_scale)

@dataclass
class PlantedConfig:
    planted_field: int = 4
    planted_replaced: int = 5
    planted_mapped: int = 6
    planted_stored: int = 7
    planted_state: list = field(init=False, default_factory=list)
"""

PLANT_ROOT = """
planted_call([], planted_kw=2)
planted_call([], planted_pos=PLANTED_THREE)
planted_forward([])
PlantedConfig(planted_field=4)
"""


def test_planted_options_only_tests_set_are_reported(tree):
    sources, roots, _ = tree
    planted = dict(sources)
    planted["repro.util.ewma"] = (
        "from dataclasses import dataclass, field\n"
        + planted["repro.util.ewma"] + PLANT_OPTIONS + "\nPLANTED_THREE = 3\n"
    )
    root = ast.parse(PLANT_ROOT)
    found = [
        name for name in unset_options(planted, roots + [root])
        if "planted" in name
    ]
    # Passing the default, by value or through a constant, sets nothing;
    # forwarding an option nobody sets sets nothing either. Init=False
    # state is not an option.
    assert found == [
        "repro.util.ewma.PlantedConfig.planted_field",
        "repro.util.ewma.PlantedConfig.planted_mapped",
        "repro.util.ewma.PlantedConfig.planted_replaced",
        "repro.util.ewma.PlantedConfig.planted_stored",
        "repro.util.ewma.planted_call.planted_kw",
        "repro.util.ewma.planted_call.planted_pos",
        "repro.util.ewma.planted_call.planted_scale",
        "repro.util.ewma.planted_forward.planted_scale",
    ]


@pytest.mark.parametrize(
    ("use", "option"),
    [
        ("planted_call([], planted_kw=9)", "planted_call.planted_kw"),
        ("planted_call([], 9)", None),  # keyword-only: no position
        ("planted_forward([], 0.5)", "planted_forward.planted_scale"),
        ("PlantedConfig(8)", "PlantedConfig.planted_field"),
        (
            "dataclasses.replace(config, planted_replaced=8)",
            "PlantedConfig.planted_replaced",
        ),
        (
            'PlantedConfig(**{"planted_mapped": 8})',
            "PlantedConfig.planted_mapped",
        ),
        ("config.planted_stored = 8", "PlantedConfig.planted_stored"),
    ],
)
def test_planted_option_a_root_sets_is_not_reported(tree, use, option):
    sources, roots, _ = tree
    planted = dict(sources)
    planted["repro.util.ewma"] = (
        "from dataclasses import dataclass, field\n"
        + planted["repro.util.ewma"] + PLANT_OPTIONS
    )
    unset = set(unset_options(planted, roots))
    found = set(unset_options(planted, roots + [ast.parse(use)]))
    set_now = {name.split("ewma.", 1)[1] for name in unset - found}
    if option is None:
        assert set_now == set()
    elif option == "planted_forward.planted_scale":
        # Forwarded: setting the outer option sets the inner one too.
        assert set_now == {option, "planted_call.planted_scale"}
    else:
        assert set_now == {option}


def test_pass_is_fast_enough_for_the_lint_job():
    started = time.perf_counter()
    sources, roots, root_modules = load_sources()
    unreached(sources, roots, root_modules, keep=ALLOWLIST)
    write_only(sources, roots)
    unset_options(sources, roots, keep=OPTIONS_ALLOWLIST)
    assert time.perf_counter() - started < 5.0
