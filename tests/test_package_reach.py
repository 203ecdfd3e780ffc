"""Every function in the package is reached by what a command runs.

The drive runs each CLI subcommand on both scenarios, on good, tampered and
failing inputs, and the library calls of the four benchmark workloads, under
``sys.setprofile``.  A function or method of ``src/matchdyn`` that the drive
does not enter must be abstract (its body only raises NotImplementedError) or
stand on ALLOWED with the reason it stays.  Test-only references live in
``tests/reference.py``, not in the package.
"""
import ast
import importlib
import inspect
import os
import pkgutil
import shutil
import sys
import textwrap

import pytest

import matchdyn
import matchdyn.cli
from matchdyn.scenarios import SCENARIOS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# "module.qualname", or a whole module, -> why it stays unreached
ALLOWED = {
    # the paper's algebroid content
    "algebroid": "bench/tracer.py imports it; check axioms is to gain "
                 "suites for it",
    # tracer pins
    "dynamics.del_residual": "bench/tracer.py pins it, under two aliases too",
    "dynamics.del_residual_matched_group": "bench/tracer.py pins it",
    # contract defaults that no built-in system's traffic reads
    "groupoids.Groupoid.fiber_tangent_matrix": "the source fiber's tangent, "
                                               "for a new descriptor",
    "groupoids.ActionGroupoid.act": "RotatedPlane, the one built-in action, "
                                    "overrides it",
    "groupoids.ActionGroupoid.inv": "the built-in action groupoid is only "
                                    "ever a factor",
    "groupoids.ActionGroupoid.orbit_matrix": "RotatedPlane overrides it",
    "groupoids.ActionGroupoid.push_matrix": "RotatedPlane overrides it",
    "groupoids.MatchedPairGroupoid.fiber_elem": "every built-in pair "
                                                "overrides it",
    "groups.Group.Ad_matrix": "the finite-difference oracle of the closed "
                              "forms that every group overrides it with",
    "groups.SO3.identity": "part of the Group contract",
    "groups.SO3.bracket": "part of the Group contract",
    "groups.Abelian.bracket": "part of the Group contract",
    "matched_group.MatchedPairGroup.identity": "part of the Group contract",
    "matched_group.MatchedPairGroup.random": "part of the Group contract",
    "matched_group.MatchedPairGroup.lift_matrix": "part of the Group "
                                                  "contract",
    # failure paths the drive cannot raise
    "errors.EvaluationError.__init__": "only a non-finite L raises it, and "
                                       "the built-in Lagrangians overflow "
                                       "first",
}


def _covers(entry, name):
    return name == entry or name.startswith(entry + ".")


def _unwrap(obj):
    """The plain function behind a method, property, classmethod,
    staticmethod, functools.cache or contextmanager, or None."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    obj = inspect.unwrap(obj) if callable(obj) else None
    return obj if inspect.isfunction(obj) else None


def package_functions():
    """{code object: "module.qualname"} of every function and method defined
    in the package's source, lambdas and nested functions excluded; aliases
    share a code object."""
    found = {}
    for info in pkgutil.iter_modules(matchdyn.__path__):
        mod = importlib.import_module("matchdyn." + info.name)
        owners = [vars(mod)] + [
            vars(cls) for cls in vars(mod).values()
            if inspect.isclass(cls) and cls.__module__ == mod.__name__]
        for namespace in owners:
            for obj in namespace.values():
                fn = _unwrap(obj)
                if (fn is None or fn.__code__.co_filename != mod.__file__
                        or fn.__name__ == "<lambda>"):
                    continue
                found[fn.__code__] = "%s.%s" % (info.name, fn.__qualname__)
    return found


def is_abstract(code):
    """True if the function's body, past its docstring, only raises
    NotImplementedError."""
    lines, _ = inspect.findsource(code)
    source = textwrap.dedent("".join(inspect.getblock(
        lines[code.co_firstlineno - 1:])))
    body = ast.parse(source).body[0].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value,
                                                    ast.Constant):
        body = body[1:]
    exc = body[0].exc if len(body) == 1 and isinstance(body[0],
                                                       ast.Raise) else None
    return getattr(getattr(exc, "func", exc), "id", None) == (
        "NotImplementedError")


def _write_ini(path, scenario, **params):
    lines = ["[scenario]", "id = %s" % scenario, "steps = 3",
             "out = %s" % path.replace(".ini", ".csv"), "[lagrangian]"]
    lines += ["%s = %s" % kv for kv in params.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# (expected exit code, argv) run in a scratch directory, in this order
CLI = [
    (0, ["run", "sl2c", "--steps", "4"]),
    (0, ["run", "trivial_groupoid", "--steps", "4", "--out", "tg.csv"]),
    (0, ["run", "--config", "sl2c_c03.ini"]),
    (0, ["run", "--config", "tg_k2.ini"]),
    (0, ["export", "sl2c", "--steps", "3", "--report", "report.json"]),
    (0, ["export", "trivial_groupoid", "--steps", "3"]),
    (0, ["check", "residual", "sl2c.csv"]),
    (0, ["check", "residual", "tg.csv"]),
    (0, ["check", "residual", "sl2c_c03.csv"]),
    (0, ["check", "residual", "tg_k2.csv"]),
    (0, ["check", "residual", os.path.join(DATA, "sl2c_fd.csv")]),
    (0, ["check", "residual", os.path.join(DATA, "trivial_groupoid_fd.csv")]),
    # the bench's tampering: a K coordinate, and an m1 that breaks the gluing
    (1, ["check", "residual", "sl2c_tampered.csv"]),
    (1, ["check", "residual", "tg_tampered.csv"]),
    (0, ["check", "axioms", "--samples", "3"]),
    (1, ["run", "--config", "singular.ini"]),
    (2, ["run", "--config", "unknown.ini"]),
]


def _drive_cli(md):
    _write_ini("sl2c_c03.ini", "sl2c", coupling=0.3)
    _write_ini("tg_k2.ini", "trivial_groupoid", k_rot=2.0)
    _write_ini("singular.ini", "sl2c", ig1=0, ig2=0, ig3=0)
    _write_ini("unknown.ini", "no_such_scenario")
    codes = []
    for expect, argv in CLI:
        if argv[-1].endswith("_tampered.csv"):
            scenario = "sl2c" if argv[-1].startswith("sl2c") else (
                "trivial_groupoid")
            workloads.tamper(argv[-1].replace("_tampered", ""), argv[-1],
                             scenario)
        codes.append((workloads.run_cli(md, argv)[0], argv))
    return codes


def _drive_bench(md, seed=1):
    """Set-up, warm-up, one request of each kind and the untimed requests
    of every benchmark workload, each with its gate."""
    errors = []
    for workload in workloads.WORKLOADS:
        inputs = workloads.generate(md, workload, seed)
        kinds = {}
        for request in inputs.requests:
            kinds.setdefault(request.label.split()[0], request)
        for request in [inputs.warmup, *kinds.values(), *inputs.untimed]:
            errors.append(request.gate(request.call()))
    return errors


@pytest.fixture(scope="module")
def drive(tmp_path_factory):
    """(code objects entered, CLI exit codes, bench gate verdicts)."""
    workdir = tmp_path_factory.mktemp("reach")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # an earlier test's call must not hide the parser build
    matchdyn.cli._build_parser.cache_clear()
    cwd = os.getcwd()
    previous = sys.getprofile()
    os.chdir(workdir)
    sys.setprofile(profile)
    try:
        codes = _drive_cli(matchdyn)
        errors = _drive_bench(matchdyn)
    finally:
        sys.setprofile(previous)
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    return entered, codes, errors


def test_the_drive_gets_the_exit_codes_and_verdicts_it_expects(drive):
    _, codes, errors = drive
    assert [rc for rc, _ in codes] == [expect for expect, _ in CLI]
    assert errors == [None] * len(errors)


def test_every_package_function_is_reached_abstract_or_listed(drive):
    entered = drive[0]
    missed = sorted(name for code, name in package_functions().items()
                    if code not in entered and not is_abstract(code)
                    and not any(_covers(entry, name) for entry in ALLOWED))
    if missed:
        pytest.fail("reached by no command, not abstract and not on "
                    "ALLOWED: " + ", ".join(missed))


def test_every_allowed_name_exists_and_is_unreached(drive):
    entered = drive[0]
    functions = package_functions()
    stale = []
    for entry in ALLOWED:
        codes = [code for code, name in functions.items()
                 if _covers(entry, name)]
        if not codes or any(code in entered for code in codes):
            stale.append(entry)
    if stale:
        pytest.fail("on ALLOWED but reached or gone: " + ", ".join(stale))


def test_abstract_means_the_body_only_raises_not_implemented():
    names = {name for code, name in package_functions().items()
             if is_abstract(code)}
    assert "groups.Group.mul" in names
    assert "groupoids.Groupoid.alpha" in names
    assert "groups.SU2.mul" not in names


def test_the_enumeration_unwraps_decorators_and_merges_aliases():
    names = set(package_functions().values())
    assert {"cli._build_parser", "dynamics.solver_failure",
            "scenarios.RunReport.max_residual",
            "scenarios.ScenarioConfig.from_ini"} <= names
    # aliases are one entry under the def's own name
    assert "dynamics.del_step_matched_group" not in names
    assert "dynamics.del_step" in names


def _assigned_attributes(tree):
    """(object node, attribute name, line) of every attribute that a
    statement of ``tree`` assigns, setattr calls with a literal name
    included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "setattr"
                    and len(node.args) == 3
                    and isinstance(node.args[1], ast.Constant)):
                yield node.args[0], node.args[1].value, node.lineno
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute):
                yield target.value, target.attr, target.lineno


def package_trees():
    """{file name: parsed module} of the package's source."""
    src = os.path.dirname(os.path.abspath(matchdyn.__file__))
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                trees[name] = ast.parse(fh.read())
    return trees


def test_no_statement_rebinds_a_method_of_another_object():
    # an object's methods are fixed by its class when it is built; an
    # instance may bind its own (self.check = G.check), but nothing else
    # patches them afterwards
    trees = package_trees()
    methods = {item.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert {"lift_matrix", "left_lift", "check"} <= methods
    rebound = ["%s:%d %s" % (name, line, attr)
               for name, tree in trees.items()
               for obj, attr, line in _assigned_attributes(tree)
               if attr in methods
               and not (isinstance(obj, ast.Name) and obj.id == "self")]
    assert rebound == []


def scenario_branches(tree, names):
    """(line, source) of every comparison of a ``scenario`` name or
    attribute with a string constant, and of every module-level dict but
    SCENARIOS keyed by one of ``names``."""
    def is_scenario(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "scenario"

    def is_text(node):
        elts = getattr(node, "elts", [node])
        return any(isinstance(e, ast.Constant) and isinstance(e.value, str)
                   for e in elts)

    for node in ast.walk(tree):
        operands = [getattr(node, "left", None),
                    *getattr(node, "comparators", [])]
        if (isinstance(node, ast.Compare) and any(map(is_scenario, operands))
                and any(is_text(o) for o in operands if not is_scenario(o))):
            yield node.lineno, ast.unparse(node)
    for node in tree.body:
        value = getattr(node, "value", None)
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(value, ast.Dict):
            keys = [getattr(k, "value", None) for k in value.keys]
        elif isinstance(value, ast.Call) and getattr(value.func, "id",
                                                     None) == "dict":
            keys = [kw.arg for kw in value.keywords]
        else:
            continue
        if (set(keys) & set(names)
                and [getattr(t, "id", None) for t in targets] != [
                    "SCENARIOS"]):
            yield node.lineno, ast.unparse(node).splitlines()[0]


def test_no_command_branches_on_a_scenario_name():
    # what a scenario is lives in its SCENARIOS record; a test of its name,
    # or a table of its own, would make a new scenario edit every command
    branches = ["%s:%d %s" % (name, line, text)
                for name, tree in package_trees().items()
                for line, text in scenario_branches(tree, list(SCENARIOS))]
    assert branches == []


def test_the_scenario_guard_sees_a_branch_and_a_table():
    tree = ast.parse(textwrap.dedent("""
        HEADERS = {"sl2c": 1}
        LAGRANGIANS = dict(trivial_groupoid=2)
        SCENARIOS = {"sl2c": 3}
        OTHER = {"key": 4}
        if config.scenario == "sl2c" or scenario in ("a", "b"):
            pass
        if config.scenario in SCENARIOS or config.derivatives == "fd":
            pass
        """))
    assert [line for line, _ in scenario_branches(
        tree, ["sl2c", "trivial_groupoid"])] == [6, 6, 2, 3]
