"""The three workloads: set-up, timed pass steps, and grading.

A workload's constructor is its set-up: it builds the input series.  A pass
is ``steps()`` run in order; the runner rescales each step by the CPU's
speed during it.  ``grade`` runs after every timed pass and compares each
output with an independent reference or a stored tolerance.  Library
functions are looked up on their modules at call time (``bs.branch_sum``),
so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import time

import mpmath as mp

import borelsum as bs
import borelsum.reproduce as reproduce

import spec

prec = bs.PrecisionConfig(spec.PRECISION_BITS)


def digits(dev, ref) -> float:
    """Correct digits of a value off ``ref`` by ``dev``; working precision if exact."""
    if dev == 0:
        return spec.PRECISION_BITS * 0.30103
    return float(-mp.log10(dev / abs(ref)))


def row(name, passed, ndigits=None) -> dict:
    return {"name": name, "passed": bool(passed), "digits": ndigits}


def repro_rows(results: dict) -> list[dict]:
    return [row(f"{target}: {r.label}", r.passed)
            for target, rows in results.items() for r in rows]


def repro_values(results: dict) -> list:
    return [r.computed for rows in results.values() for r in rows]


def run_targets(*targets):
    return lambda out: {t: reproduce.run_target(t, prec) for t in targets}


class Workload:
    """Set-up in the constructor; a pass is ``steps()`` run in order."""

    def __init__(self, pts):
        self.pts = pts

    def steps(self) -> list:
        raise NotImplementedError

    def run_pass(self) -> tuple[dict, list]:
        """(outputs by step, [start, end] of each step on ``time.monotonic``)."""
        out, spans = {}, []
        for key, fn in self.steps():
            t0 = time.monotonic()
            out[key] = fn(out)
            spans.append((t0, time.monotonic()))
        return out, spans


class PsiBranchSweep(Workload):
    """36-row branch sweeps of psi; stored tables 1, 2 and the least-term sum."""

    def __init__(self, pts):
        super().__init__(pts)
        self.f = bs.psi_series(spec.PSI_DEPTH, prec)
        self.lam = mp.mpf(spec.PSI_LAMBDA)
        self.zs = [bs.RamifiedPoint(m, a) for m, a in pts]

    def sweep(self, z):
        return lambda out: [bs.branch_sum(self.f, self.lam, z, N, prec=prec)
                            for N in spec.PSI_N_RANGE]

    def steps(self) -> list:
        return [(i, self.sweep(z)) for i, z in enumerate(self.zs)] + [
            ("repro", run_targets(*spec.REPRODUCE_TARGETS["psi-branch-sweep"]))]

    def values(self, out) -> list:
        return [r.estimate for i in range(len(self.zs)) for r in out[i]] \
            + repro_values(out["repro"])

    def grade(self, out):
        rows, refs = [], []
        with bs.working_precision(prec):
            for i, ((mod, _), z) in enumerate(zip(self.pts, self.zs)):
                # the generalized route is independent of the branch route
                ref = bs.generalized_factorial_sum(self.f, self.lam, z,
                                                   spec.PSI_REFERENCE_N, prec=prec)
                refs.append({"value": mp.nstr(mp.re(ref.estimate), 40),
                             "error": mp.nstr(ref.heuristic_error, 8)})
                for res in out[i]:
                    dev = abs(res.estimate - ref.estimate)
                    tol = spec.PSI_TOL_FACTOR * (res.heuristic_error + ref.heuristic_error)
                    rows.append(row(f"psi branch |z|={mod} N={res.N}", dev <= tol,
                                    digits(dev, ref.estimate)))
        return rows + repro_rows(out["repro"]), {"psi": refs}


class Ex2Generalized(Workload):
    """Stored tables 3-5 and the rotated example2 sum at N=150."""

    def __init__(self, pts):
        super().__init__(pts)
        self.f = bs.example2_series(spec.EX2_DEPTH, prec)
        with bs.working_precision(prec):
            self.theta = mp.pi / 3
            self.lam = mp.mpf(spec.EX2_LAMBDA)
        self.zs = [bs.RamifiedPoint(m, a) for m, a in pts]

    def steps(self) -> list:
        return [("repro", run_targets("table3", "table4")),
                ("table5", run_targets("table5")),
                ("sums", lambda out: [
                    bs.rotated_generalized_sum(self.f, self.theta, self.lam, z, spec.EX2_N,
                                               prec=prec) for z in self.zs])]

    def values(self, out) -> list:
        return repro_values({**out["repro"], **out["table5"]}) \
            + [r.estimate for r in out["sums"]]

    def grade(self, out):
        rows = repro_rows({**out["repro"], **out["table5"]})
        g = bs.BUILTIN_EVALUATORS["example2"]
        with bs.working_precision(prec):
            for (mod, _), z, res in zip(self.pts, self.zs, out["sums"]):
                ref = bs.laplace_quadrature(g, self.theta, z.projection(prec),
                                            prec=prec)
                dev = abs(res.estimate - ref)
                rows.append(row(f"example2 rotated |z|={mod} N={spec.EX2_N}",
                                dev <= spec.EX2_ORACLE_TOL and not res.diverging,
                                digits(dev, ref)))
        return rows, {}


class EulerFactorialOracle(Workload):
    """One depth-201 factorial expansion summed at N=200 with its bounds,
    quadrature at every point (timed here), fig2 and the bound table."""

    def __init__(self, pts):
        super().__init__(pts)
        self.f = bs.euler_series(spec.EULER_DEPTH, prec)
        self.envelope = bs.GrowthEnvelope(A=spec.EULER_A, B=spec.EULER_B,
                                          lam=float("inf"), domain="region")
        self.zs = [bs.RamifiedPoint(m, a).projection(prec) for m, a in pts]

    def point(self, z):
        # one step per point, each rescaled by the CPU's speed around it
        A, B, N = spec.EULER_A, spec.EULER_B, spec.EULER_N
        return lambda out: (
            bs.factorial_series_sum(out["expansion"], z, N, envelope=self.envelope, prec=prec),
            bs.r_fact_asymptotic(1, A, B, N, z, prec),
            bs.b_bound(1, A, B, N, prec),
            bs.laplace_quadrature(bs.BUILTIN_EVALUATORS["euler"], 0.0, z, None, prec))

    def bounds(self, out) -> dict:
        with bs.working_precision(prec):
            return {"repro": {"fig2": reproduce.run_target("fig2", prec)},
                    "table": bs.bound_comparison_table(1.0, 1.0, mp.mpc(10, 10), 30, prec)}

    def steps(self) -> list:
        return [("expansion", lambda out: bs.factorial_expansion(
                    self.f, 1, spec.EULER_N + 1, prec)),
                *((i, self.point(z)) for i, z in enumerate(self.zs)),
                ("bounds", self.bounds)]

    def values(self, out) -> list:
        points = [out[i] for i in range(len(self.zs))]
        vals = [v for res, *rest in points
                for v in (res.estimate, res.rigorous_bound, res.heuristic_error, *rest)]
        vals += [v for r in out["bounds"]["table"]
                 for v in (r.log_r_as_ln2, r.log_r_as_halfpi, r.log_r_fact)]
        return vals + list(out["expansion"].b) + repro_values(out["bounds"]["repro"])

    def grade(self, out):
        N, F = spec.EULER_N, spec.EULER_ASYMPTOTIC_FACTOR
        rows, refs = [], {"oracle": [], "bounds": []}
        with bs.working_precision(prec):
            for i, (mod, arg) in enumerate(self.pts):
                res, asym, bb, ref = out[i]
                at = f"euler z=({mod}, {arg}) N={N}"
                dev = abs(res.estimate - ref)
                rows.append(row(f"{at} against quadrature",
                                dev <= spec.EULER_HEURISTIC_FACTOR * res.heuristic_error,
                                digits(dev, ref)))
                rows.append(row(f"{at} within r_fact", dev <= res.rigorous_bound))
                rows.append(row(f"{at} r_fact_asymptotic within {F}x of r_fact",
                                1 / F <= asym / res.rigorous_bound <= F))
                refs["oracle"].append([mp.nstr(mp.re(ref), 70), mp.nstr(mp.im(ref), 70)])
            bb = out[0][2]
            rows.append(row(f"|b_{N}| <= b_bound", abs(out["expansion"].b[N]) <= bb))
            logs = [r.log_r_fact for r in out["bounds"]["table"]]
            rows.append(row("compare-bounds: factorial bound decreasing for n >= 5",
                            all(logs[n + 1] < logs[n] for n in range(5, len(logs) - 1))))
            refs["bounds"] = [{"n": r.n, "log10_r_as_ln2": mp.nstr(r.log_r_as_ln2, 15),
                               "log10_r_as_halfpi": mp.nstr(r.log_r_as_halfpi, 15),
                               "log10_r_fact": mp.nstr(r.log_r_fact, 15)}
                              for r in out["bounds"]["table"]]
        return rows + repro_rows(out["bounds"]["repro"]), refs


BY_NAME = {"psi-branch-sweep": PsiBranchSweep, "ex2-generalized": Ex2Generalized,
           "euler-factorial-oracle": EulerFactorialOracle}
