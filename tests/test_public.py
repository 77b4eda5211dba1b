"""The public surface: ``pdsplit.__all__`` names what the package exports."""

import inspect

import pdsplit


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
    "Schedule": {"horizon": None, "omega_x": None, "omega_y": None, "s": 1.0, "t": 1.0,
                 "chi_x": None, "chi_y": None, "r_tilde": None},
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
    "rate_slope": {"column": "ergodic_objective"},
    "reference_solve": {"budget": 100000, "tol": 1e-08},
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
