"""The public surface: the names the package exports, their options, and the
inputs they refuse."""

import ast
import dataclasses
import inspect
import math
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import pdsplit
from pdsplit import accel, errors, fb, linops, prox, saddle, shard, stoch
from pdsplit.errors import SolverError


def test_every_public_name_resolves_once_in_sorted_order():
    names = pdsplit.__all__
    for name in names:
        assert getattr(pdsplit, name) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)


# Public names that no test module but this one reads, each with the reason
# it may stay so.  None does: every public name is read by a test module.
UNREAD = set()


def _names_read(path):
    """The names a module reads: bare names, attribute names and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_read_by_a_test_module():
    modules = {path.stem: _names_read(path)
               for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py"))
               if path.name != "test_public.py"}
    table = {name: [module for module, names in modules.items() if name in names]
             for name in pdsplit.__all__}
    assert {name for name, readers in table.items() if not readers} == UNREAD, table


# Fields of the public dataclasses that neither the package nor the
# benchmark reads as an attribute, each with the reason it may stay so.
UNREAD_FIELDS = {
    "ShardPlan.col_offsets": "the layout itself: each worker's feature block",
    "ShardPlan.row_offsets": "the layout itself: each worker's dual-row block",
    "ShardPlan.cross_table": "the layout itself: the rows each sub-block moves",
    "RateEstimate.n_points": "the fit's window size, which a test checks",
}


def test_every_public_dataclass_field_is_read_by_the_package_or_the_benchmark():
    root = pathlib.Path(__file__).parent.parent
    read = {node.attr
            for path in [*root.glob("src/pdsplit/*.py"), *root.glob("perfbench/*.py")]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {f"{name}.{f.name}": f.name for name in pdsplit.__all__
              if dataclasses.is_dataclass(cls := getattr(pdsplit, name))
              and isinstance(cls, type) for f in dataclasses.fields(cls)}
    assert {key for key, field in fields.items() if field not in read} == set(UNREAD_FIELDS)


# The defaulted parameters of every public callable and of ``Schedule.build``,
# the one schedule constructor.  Adding, dropping or changing an option edits
# this table.
DEFAULTS = {
    "AccelParams": {"mode": "kappa", "kappa": 0.0, "setting": "bounded", "omega_x": None,
                    "omega_y": None, "horizon": None, "q": 0.5, "r": 0.25,
                    "max_iters": None, "record_every": 1},
    "FbParams": {"kappa": 0.0, "tau": None, "sigma": None, "relaxation": "recipe",
                 "max_iters": 1000, "record_every": 1},
    "IdentityShift": {"shift": None},
    "MaskedGradOracle": {"radius": 1.0},
    "Schedule.build": {"s": 1.0, "t": 1.0, "horizon": None, "omega_x": None,
                       "omega_y": None, "chi_x": None, "chi_y": None, "r_tilde": None},
    "StocParams": {"mode": "kappa", "kappa": 1.0, "setting": "bounded", "omega_x": None,
                   "omega_y": None, "horizon": None, "q": 0.25, "r": 0.2, "s": 0.75,
                   "t": 0.8, "chi_x": None, "chi_y": None, "r_tilde": None,
                   "record_every": 1, "unproven": False},
    "SyntheticSpec": {"seed": 0, "n_samples": 200, "n_groups": 10, "group_size": 20,
                      "subnet_size": 5, "n_subnets": 40, "n_active": 4, "dim": 20,
                      "lam": None, "noise_sd": None},
    "auto_norm_bounds": {"warm_iters": 2000},
    "fb_step": {"ax": None},
    "mode_coefficients": {"kappa": 0.0},
    "mode_factors": {"kappa": 0.0},
    "op_norm": {"tol": 1e-09, "max_iters": 10000},
    "primal_objective": {"ax": None},
    "reference_solve": {"budget": 100000},
    "run_accel": {"x0": None, "y0": None},
    "run_fb": {"x0": None, "y0": None, "tol": None},
    "run_fb_sharded": {"x0": None, "y0": None, "tol": None},
    "run_fbf": {"tau": None, "alpha1": 0.0, "alpha2": 0.0, "max_iters": 1000, "x0": None,
                "y0": None, "tol": None, "record_every": 1},
    "run_stoc": {"x0": None, "y0": None},
    "tune_qr": {"omega_x": None, "omega_y": None},
}


def _defaults(fn):
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty}


def test_public_callables_take_exactly_the_pinned_defaulted_parameters():
    # The error classes take a message and have no signature to read.
    got = {name: _defaults(obj) for name, obj in vars(pdsplit).items()
           if name in pdsplit.__all__
           and not (isinstance(obj, type) and issubclass(obj, Exception))}
    got["Schedule.build"] = _defaults(pdsplit.Schedule.build)
    assert {name: d for name, d in got.items() if d} == DEFAULTS


# The public attribute names (methods, properties, class and instance
# attributes) of six base classes together with every subclass the package
# defines.  A second name for something, an alias or a kind tag, edits this
# table.
ATTRIBUTES = {
    "LinearOperator": {"apply", "apply_adjoint", "array", "blocks", "matrix", "offsets",
                       "shape"},
    "ConjugateProx": {"dim", "lam", "offsets", "partition", "parts", "primal_value",
                      "prox", "radii", "shift"},
    "SmoothLoss": {"A", "L_f", "grad", "on", "phi", "phi_grad", "value"},
    "SaddleProblem": {"K", "L_f", "dims", "hconj", "k_norm", "loss"},
    "StochasticOracle": {"chi_x", "chi_y", "grad", "kx", "ky", "pi", "problem", "radius",
                         "rngs"},
    "RunResult": {"x", "y", "x_tilde", "y_tilde", "trace", "iterations", "converged", "tau",
                  "sigma", "rho", "schedule", "ledger"},
}


def _family(base):
    """``base`` and every subclass of it that the package defines."""
    classes = [base]
    for cls in classes:
        classes += [c for c in cls.__subclasses__() if c.__module__.startswith("pdsplit.")]
    return classes


def _instances():
    """One instance of every class of each family."""
    eye = linops.IdentityOp(2)
    box = prox.BoxClip(1.0, 2)
    loss = saddle.quadratic_loss(np.eye(2), np.ones(2))
    problem = saddle.SaddleProblem(loss, eye, box)
    return {
        linops.LinearOperator: [linops.DenseOp(np.eye(2)), linops.SparseOp(sp.eye_array(2)),
                                eye, linops.ZeroOp((2, 2)), linops.HStackOp([eye])],
        prox.ConjugateProx: [box, prox.GroupL2Balls(prox.GroupPartition([2]), 1.0),
                             prox.IdentityShift(2), prox.Composite([box])],
        saddle.SmoothLoss: [loss],
        saddle.SaddleProblem: [problem],
        stoch.StochasticOracle: [stoch.MaskedGradOracle(problem, 0.5, 0)],
        fb.RunResult: [fb.run_fb(problem, fb.FbParams(max_iters=1)),
                       accel.run_accel(problem, accel.AccelParams(omega_x=1.0, omega_y=1.0,
                                                                  max_iters=1)),
                       shard.run_fb_sharded(problem, fb.FbParams(max_iters=1), 1)],
    }


def test_base_classes_and_their_subclasses_have_exactly_the_pinned_attributes():
    got = {}
    for base, instances in _instances().items():
        family = _family(base)
        assert {type(obj) for obj in instances} | {base} == set(family)
        names = {name for cls in family for name in vars(cls)}
        names |= {name for obj in instances for name in vars(obj)}
        got[base.__name__] = {name for name in names if not name.startswith("_")}
    assert got == ATTRIBUTES


# Every kind of value an input can be given wrongly or at an edge.
SWEEP = (True, math.nan, math.inf, -math.inf, "a", 1 + 2j, None, -1, 0, 2.5)

# Defaulted parameters in DEFAULTS that take an array, not a number.
ARRAY_PARAMETERS = {"x0", "y0", "ax", "shift"}

RECORDS = ("FbParams", "AccelParams", "StocParams", "SyntheticSpec")


def _outputs(out):
    """The numbers a call returned: its trace objectives, the objective of
    a generated problem or a penalty at zero, a schedule's first steps, or
    the numbers themselves."""
    if isinstance(out, pdsplit.FbResult | pdsplit.AccelResult):
        out = out.trace.column("objective")
    if isinstance(out, pdsplit.StocResult):
        out = np.concatenate([run.trace.column("objective") for run in out.runs])
    if isinstance(out, list):
        out = np.concatenate([r.trace.column("objective") for r in out] or [[]])
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, pdsplit.GeneratedProblem):
        out = saddle.primal_objective(out.problem, np.zeros(out.problem.dims[0]))
    if isinstance(out, pdsplit.Schedule):
        out = (out.tau(1), out.sigma(1))
    if isinstance(out, prox.ConjugateProx):
        out = out.primal_value(np.zeros(out.dim))
    return np.atleast_1d(np.asarray(out, dtype=object)).tolist()


def _calls(problem):
    """Every swept callable on a tiny lasso, by name, with its base arguments.

    Each call runs at most five steps.  Records are built, then run (or
    generated); the callables of DEFAULTS take their base arguments as
    keywords, and so do a few public functions of bare numbers that have no
    defaulted parameter.
    """
    factors = pdsplit.mode_factors("kappa", 1.0)

    def record(cls, run, **base):
        return lambda **kw: run(cls(**{**base, **kw})), base

    def stoc(params):
        factory = pdsplit.masked_oracle_factory(problem, params, 0.5)
        return pdsplit.run_stoc(problem, params, factory, seeds=[0])

    def block(kappa=0.0, tau=0.1, sigma=0.1, max_iters=3, tol=1e-12):
        return fb.run_fb_block(problem, [kappa], [tau], [sigma], max_iters, tol)

    def schedule(setting="bounded", q=0.25, r=0.2, **kw):
        return pdsplit.Schedule.build(setting, problem.L_f, problem.k_norm, factors, q, r,
                                      **kw)

    noisy = dict(s=0.75, t=0.8, horizon=5, omega_x=2.0, omega_y=2.0, chi_x=0.5, chi_y=0.5)
    return {
        "FbParams": record(pdsplit.FbParams, lambda pr: pdsplit.run_fb(problem, pr),
                           max_iters=3),
        "AccelParams": record(pdsplit.AccelParams,
                              lambda pr: pdsplit.run_accel(problem, pr),
                              omega_x=2.0, omega_y=2.0, max_iters=3),
        "StocParams": record(pdsplit.StocParams, stoc, kappa=0.5, unproven=True,
                             omega_x=2.0, omega_y=2.0, horizon=4),
        "SyntheticSpec": record(pdsplit.SyntheticSpec, pdsplit.generate, kind="lasso",
                                n_samples=6, dim=3),
        "MaskedGradOracle": (lambda **kw: pdsplit.MaskedGradOracle(problem, 0.5, 0, **kw),
                             {"radius": 1.0}),
        "Schedule.build": (schedule, {"q": 0.25, "r": 0.2, **noisy}),
        "Schedule.build unbounded": (
            lambda **kw: schedule("unbounded", **kw),
            {**noisy, "r_tilde": 2.0, "omega_x": None, "omega_y": None}),
        "auto_norm_bounds": (lambda **kw: pdsplit.auto_norm_bounds(problem, **kw)[:2],
                             {"warm_iters": 3}),
        "mode_coefficients": (lambda **kw: pdsplit.mode_coefficients("kappa", **kw),
                              {"kappa": 0.0}),
        "mode_factors": (lambda **kw: pdsplit.mode_factors("kappa", **kw), {"kappa": 0.0}),
        "op_norm": (lambda **kw: pdsplit.op_norm(problem.loss.A, **kw),
                    {"tol": 1e-9, "max_iters": 5}),
        "reference_solve": (lambda **kw: pdsplit.reference_solve(problem, **kw),
                            {"budget": 5}),
        "run_fb": (lambda **kw: pdsplit.run_fb(problem, pdsplit.FbParams(max_iters=3), **kw),
                   {"tol": None}),
        "run_fb_sharded": (lambda **kw: pdsplit.run_fb_sharded(
            problem, pdsplit.FbParams(max_iters=3), 2, **kw), {"tol": None}),
        "run_fbf": (lambda **kw: pdsplit.run_fbf(problem, **kw),
                    {"tau": None, "alpha1": 0.0, "alpha2": 0.0, "max_iters": 3, "tol": None,
                     "record_every": 1}),
        "tune_qr": (lambda **kw: pdsplit.tune_qr(
            "bounded", problem.L_f, problem.k_norm, factors, **kw),
            {"horizon": 10, "omega_x": 2.0, "omega_y": 2.0}),
        "partition_problem": (lambda **kw: pdsplit.partition_problem(problem, **kw).m,
                              {"m_workers": 2}),
        "run_fb_block": (block, {"kappa": 0.0, "tau": 0.1, "sigma": 0.1, "max_iters": 3,
                                 "tol": 1e-12}),
        "BoxClip": (lambda **kw: pdsplit.BoxClip(dim=2, **kw), {"lam": 1.0}),
        "GroupL2Balls": (lambda **kw: pdsplit.GroupL2Balls(prox.GroupPartition([2]),
                                                           **kw), {"radii": 1.0}),
    }


def _swept():
    """``(callable, parameter, takes_a_bool)``: every field of the four records,
    every numeric defaulted parameter of DEFAULTS, and the parameters of the
    calls that have no defaults (their base arguments in ``_calls``)."""
    targets = [(name, f.name) for name in RECORDS
               for f in dataclasses.fields(getattr(pdsplit, name))]
    targets += [(name, param) for name, defaults in DEFAULTS.items()
                if name not in RECORDS for param, default in defaults.items()
                if param not in ARRAY_PARAMETERS
                and (default is None or isinstance(default, int | float))]
    targets += [("Schedule.build", "q"), ("Schedule.build", "r"),
                ("Schedule.build unbounded", "r_tilde"), ("tune_qr", "horizon"),
                ("partition_problem", "m_workers")]
    targets += [("run_fb_block", param) for param in ("kappa", "tau", "sigma", "max_iters",
                                                      "tol")]
    targets += [(name, "radii" if name == "GroupL2Balls" else "lam")
                for name in ("BoxClip", "GroupL2Balls")]
    return [(name, param, isinstance(DEFAULTS.get(name, {}).get(param), bool))
            for name, param in targets]


def _wrong_type(value, takes_a_bool):
    """Whether ``value`` can never be the value of such a parameter: a
    string, a complex number or NaN anywhere, a bool where a number goes and
    anything else where a bool goes."""
    if takes_a_bool:
        return not isinstance(value, bool)
    return value is True or isinstance(value, str | complex) or (
        isinstance(value, float) and math.isnan(value))


@pytest.mark.parametrize("name, param, takes_a_bool", _swept(),
                         ids=[f"{n}-{p}" for n, p, _ in _swept()])
def test_every_input_is_taken_or_refused_with_a_solver_error(tiny_lasso, name, param,
                                                             takes_a_bool):
    call, base = _calls(tiny_lasso.problem)[name]
    failures = []
    for value in SWEEP:
        try:
            with np.errstate(all="ignore"):  # an infinite block step is taken as given
                out = call(**{**base, param: value})
        except SolverError:
            continue
        except Exception as exc:  # the defect this test looks for
            failures.append(f"{value!r}: raw {type(exc).__name__}: {exc}")
            continue
        if _wrong_type(value, takes_a_bool):
            failures.append(f"{value!r}: accepted")
        elif any(isinstance(v, float) and math.isnan(v) for v in _outputs(out)):
            failures.append(f"{value!r}: NaN objective")
    assert not failures, f"{name}({param}=...): " + "; ".join(failures)


def test_every_record_field_declares_its_domain():
    for name in RECORDS:
        for f in dataclasses.fields(getattr(pdsplit, name)):
            assert isinstance(f.metadata.get("domain"), errors._Domain), (name, f.name)
