"""The public surface: ``pdsplit.__all__`` names what the package exports."""

import inspect

import numpy as np
import scipy.sparse as sp

import pdsplit
from pdsplit import linops, prox, saddle


def test_every_public_name_resolves_once_in_sorted_order():
    names = pdsplit.__all__
    for name in names:
        assert getattr(pdsplit, name) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)


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
    "estimate_chi": {"n_draws": 1000},
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
# attributes) of four base classes together with every subclass the package
# defines.  A second name for something, an alias or a kind tag, edits this
# table.
ATTRIBUTES = {
    "LinearOperator": {"apply", "apply_adjoint", "array", "blocks", "matrix", "offsets",
                       "shape"},
    "ConjugateProx": {"conj_value", "dim", "labels", "lam", "offsets", "partition", "parts",
                      "primal_value", "prox", "radii", "shift"},
    "SmoothLoss": {"A", "L_f", "grad", "on", "phi", "phi_grad", "value"},
    "SaddleProblem": {"K", "L_f", "dims", "hconj", "k_norm", "loss"},
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
    return {
        linops.LinearOperator: [linops.DenseOp(np.eye(2)), linops.SparseOp(sp.eye_array(2)),
                                eye, linops.ZeroOp((2, 2)), linops.VStackOp([eye]),
                                linops.HStackOp([eye])],
        prox.ConjugateProx: [box, prox.L2Ball(1.0, 2), prox.L1Ball(1.0, 2),
                             prox.GroupL2Balls(prox.GroupPartition([2]), 1.0),
                             prox.HingeConj([1.0, -1.0]), prox.IdentityShift(2),
                             prox.Composite([box])],
        saddle.SmoothLoss: [loss],
        saddle.SaddleProblem: [saddle.SaddleProblem(loss, eye, box)],
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
