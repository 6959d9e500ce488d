"""Reach or remove, for functions, options and result fields.

Functions: every public function, that is every function defined at
module level in ``src/alleekit`` whose name has no leading underscore, and
every public method, one with no leading underscore defined in such a
class, is run by one of the eight CLI commands, or ``_KEPT`` says why it
stays without one; each is keyed ``module.name`` or
``module.Class.name``. The commands run in this process, on the small
configs of ``test_imports``, under ``sys.setprofile``, which sees every
call of a Python function; a 1 x 1 ``wave-scan`` shoots its cell in this
process too, ``simulate`` sizes its own grid and ``pulse`` steps with
Strang splitting. Properties are left out here (the result-field census
below counts their reads), and so are constructors: a dataclass's
``__init__`` is generated.

Options: every defaulted parameter of a function or method defined in
``src/alleekit`` is passed by some call in ``src/alleekit`` or
``perfbench``, or ``_KEPT_OPTIONS`` says why it stays. The scan is static
(``ast``) and goes by name: a call counts for every definition of the name
it calls, and a call of a class for the ``__init__`` of the class and of
its bases. A call passes a parameter by keyword, by position (after the
implicit ``self`` of a method) or through ``*`` or ``**``, which count as
passing every parameter they can reach. The fields of dataclasses and
named tuples are left out: their ``__init__`` is generated too.

Result fields: every field of a dataclass or named tuple, and every
property, defined in ``src/alleekit`` is read as an attribute somewhere in
``src/alleekit``, or ``_KEPT_FIELDS`` says why it stays. A value computed
on every call that no command reads is paid for by every run. The scan is
static and goes by name, like the one for options: a load of ``.name`` on
any object counts for every field and property called ``name``, so a field
that only echoes a same-named field of another class (an argument handed
back) hides from it.
"""

import ast
import inspect
import pkgutil
import sys
from importlib import import_module
from pathlib import Path

import alleekit
from alleekit.cli import main
from test_imports import _BODIES, _KINETICS

_PACKAGE = Path(alleekit.__file__).parent
_BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"

# public functions that no command runs, and why each stays
_KEPT = {
    "linear.branch_point_sigmas": "the benchmark's linear.bps_ms probe "
                                  "times it",
}


def _public_functions() -> dict:
    """{module.name: function} of every function defined at module level
    in src/alleekit whose name has no leading underscore, and
    {module.Class.name: function} of every such method of such a class."""
    functions = {}
    for info in pkgutil.iter_modules([str(_PACKAGE)]):
        module = import_module(f"alleekit.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None)
                    != module.__name__):
                continue
            if inspect.isfunction(obj):
                functions[f"{info.name}.{name}"] = obj
            elif inspect.isclass(obj):
                functions.update(
                    (f"{info.name}.{name}.{attr}", fn)
                    for attr, fn in vars(obj).items()
                    if inspect.isfunction(fn) and not attr.startswith("_"))
    return functions


def _codes_run_by_commands(tmp_path) -> set:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        rcs = {}
        for command, body in _BODIES.items():
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(_KINETICS + body)
            rcs[command] = main([command, "--config", str(cfg),
                                 "--out", str(tmp_path / command)])
    finally:
        sys.setprofile(previous)
    assert rcs == dict.fromkeys(_BODIES, 0)
    return seen


def test_every_public_function_is_run_by_a_command_or_kept(tmp_path):
    run = _codes_run_by_commands(tmp_path)
    functions = _public_functions()
    assert set(_KEPT) <= set(functions)
    unreached = {name for name, fn in functions.items()
                 if fn.__code__ not in run}
    # a kept function that a command reaches no longer needs its reason
    assert unreached == set(_KEPT)


# options that only a benchmark probe passes, and the probe that needs each
_BENCHMARK_ONLY = {
    "continuation.solution_stability.n_eigs":
        "continuation.stability_ms.n1024 asks for 24 eigenvalues",
    "pde.ImexStepper.__init__.include_reaction":
        "pde.diffusion_step_us.n2048 times a step without the reaction",
    "waves.shoot_heteroclinic.t_max":
        "waves.shoot_s.* shoot with the kinetic seed run to t = 2000",
}

# options that a by-name scan cannot see passed, and who passes them
_KEPT_OPTIONS = {
    "cli.main.argv": "the console script calls main() bare, so that "
                     "argparse reads sys.argv; tests pass their argv",
    "collocation.CubicHermite.__call__.nu": "the collocation residual "
                                            "calls its solution as sol(xq, 1)",
}


def _is_method(node: ast.FunctionDef, owner) -> bool:
    return isinstance(owner, ast.ClassDef) and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list)


def _defaulted_options() -> tuple[dict, dict]:
    """{name: (positional parameters after self, defaulted parameters,
    qualified name)} of every definition with a defaulted parameter, listed
    under the name a call uses, and {class name: base class names}."""
    by_name, bases = {}, {}

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [b.id for b in child.bases
                                     if isinstance(b, ast.Name)]
                visit(child, prefix + [child.name], child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [x.arg for x in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                if _is_method(child, owner):
                    positional = positional[1:]
                if defaulted:
                    qualified = ".".join(prefix + [child.name])
                    by_name.setdefault(child.name, []).append(
                        (positional, defaulted, qualified))
                visit(child, prefix + [child.name], child)
            else:
                visit(child, prefix, owner)

    for path in sorted(_PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem], None)
    return by_name, bases


def _passed_options(directory: Path, by_name: dict, bases: dict) -> set:
    """Qualified names of the defaulted parameters that some call in the
    Python files under directory passes."""
    def targets(name):
        found = list(by_name.get(name, ()))
        # a class call runs the __init__ of the class or of one of its bases
        classes = [name] if name in bases else []
        while classes:
            cls = classes.pop()
            found += [d for d in by_name.get("__init__", ())
                      if d[2].split(".")[-2] == cls]
            classes += bases.get(cls, [])
        return found

    passed = set()
    for path in sorted(directory.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = [i for i, a in enumerate(call.args)
                       if isinstance(a, ast.Starred)]
            n_pos = starred[0] if starred else len(call.args)
            keywords = {k.arg for k in call.keywords}
            for positional, defaulted, qualified in targets(name):
                for param in defaulted:
                    index = (positional.index(param) if param in positional
                             else None)
                    if (param in keywords or None in keywords
                            or (index is not None
                                and (index < n_pos or starred))):
                        passed.add(f"{qualified}.{param}")
    return passed


def test_every_defaulted_parameter_is_passed_or_kept():
    by_name, bases = _defaulted_options()
    options = {f"{qualified}.{param}"
               for defs in by_name.values()
               for _, defaulted, qualified in defs for param in defaulted}
    in_package = _passed_options(_PACKAGE, by_name, bases)
    in_benchmark = _passed_options(_BENCHMARK, by_name, bases)
    assert set(_KEPT_OPTIONS) <= options
    # a kept option that the package passes no longer needs its reason
    assert not set(_KEPT_OPTIONS) & in_package
    rest = options - set(_KEPT_OPTIONS)
    assert rest - in_package - in_benchmark == set()
    assert (rest & in_benchmark) - in_package == set(_BENCHMARK_ONLY)


# result fields that nothing in src/alleekit reads, and why each stays
_KEPT_FIELDS = {
    "temporal.AttractorSummary.period":
        "test_period_grows_toward_threshold checks the paper's period growth "
        "toward the global bifurcation with it; the mean interval behind it "
        "is computed anyway for the regularity test",
    "temporal.DiagramPoint.error":
        "why a diagram point failed; the error column of diagram.csv "
        "(ROADMAP.md item 4) is to write it",
    "waves.ScanResult.reasons":
        "why a scan cell is Unknown; the reason column of scan.csv "
        "(ROADMAP.md item 4) is to write it",
    "waves.Shot.wedge_ok":
        "the check of the wedge proposition, asserted on the fronts the "
        "tests find",
}


def _is_record(cls: ast.ClassDef) -> bool:
    """A @dataclass, bare or called, or a NamedTuple subclass."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)
    return ("dataclass" in map(name, cls.decorator_list)
            or "NamedTuple" in map(name, cls.bases))


def _result_fields() -> dict:
    """{qualified name: attribute name} of every field of a dataclass or
    named tuple and every property defined in src/alleekit."""
    fields = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and _is_record(cls)):
                    name = node.target.id
                elif (isinstance(node, ast.FunctionDef)
                      and any(isinstance(d, ast.Name) and d.id == "property"
                              for d in node.decorator_list)):
                    name = node.name
                else:
                    continue
                fields[f"{path.stem}.{cls.name}.{name}"] = name
    return fields


def _loaded_attributes() -> set:
    """The name of every attribute that code in src/alleekit loads."""
    return {node.attr
            for path in sorted(_PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_result_field_is_read_or_kept():
    fields = _result_fields()
    loaded = _loaded_attributes()
    assert set(_KEPT_FIELDS) <= set(fields)
    unread = {q for q, name in fields.items() if name not in loaded}
    # a kept field that the package reads no longer needs its reason
    assert unread == set(_KEPT_FIELDS)
