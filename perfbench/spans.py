"""Per-layer metrics from the span files that ``traced.py`` writes.

A span's self time is its duration minus the time its child spans cover.
"Outermost" spans of a name set are those with no ancestor in the set, so
nested calls (``periodic_kernel_deriv`` calling ``standard_kernel_deriv``,
``certify_membership`` inside ``calibrate_alpha``) are counted once.
"""

from __future__ import annotations

import json

import numpy as np

# the package's modules; traced.py wraps the library ones and ``cli.main``
LAYERS = ("kernels", "smoothness", "flow", "hypotheses", "geometry", "statmodel", "cli")


class Spans:
    def __init__(self, path: str):
        with np.load(path) as z:
            self.names = json.loads(str(z["names"]))
            self.name = z["name"]
            self.parent = z["parent"]
            self.dur = (z["end"] - z["start"]).astype(float) * 1e-9
            self.work = z["work"]

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def has_ancestor_in(self, mask: np.ndarray) -> np.ndarray:
        """Per span: does some proper ancestor satisfy ``mask``? (pointer doubling)"""
        p = self.parent.astype(np.int64)
        flag = np.zeros(len(p), dtype=bool)
        live = np.nonzero(p >= 0)[0]
        flag[live] = mask[p[live]]
        while live.size:
            up = p[live]
            flag[live] |= flag[up]
            p[live] = p[up]
            live = live[p[live] >= 0]
        return flag

    def outermost(self, *names: str) -> np.ndarray:
        m = self.mask(*names)
        return m & ~self.has_ancestor_in(m)

    def self_time(self) -> np.ndarray:
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=len(self.dur))
        return self.dur - covered

    def layer(self) -> np.ndarray:
        """Per span: its module, the first part of its name."""
        layers = np.array([n.split(".", 1)[0] for n in self.names] + [""], dtype=object)
        return layers[self.name]


def raw_sums(path: str) -> dict:
    """Additive totals for one traced operation."""
    s = Spans(path)
    w0, w1, w2 = s.work
    out = {"spans": float(len(s.name))}

    def total(mask, values=None):
        return float((s.dur if values is None else values)[mask].sum())

    k = s.outermost("kernels.standard_kernel_deriv", "kernels.periodic_kernel_deriv")
    out["kernels.eval_s"] = total(k)
    out["kernels.points"] = total(k, w0)
    out["kernels.calibrate_s"] = total(s.outermost(
        "kernels.calibrate_alpha", "kernels.shape_deriv_supnorm", "kernels.r_max"))

    cert = s.mask("smoothness.certify_membership")
    out["smoothness.certify.calls"] = float(cert.sum())
    out["smoothness.certify_s"] = total(s.outermost("smoothness.certify_membership"))
    out["smoothness.certify.samples"] = total(cert, w0 * w1)
    out["smoothness.supnorm_s"] = total(s.outermost("smoothness.derivative_supnorm"))
    out["smoothness.holder_s"] = total(s.outermost("smoothness.holder_quotient"))

    sdp = s.mask("hypotheses.stubble_det_pair")
    out["hypotheses.stubble_det_pair_s"] = total(s.outermost("hypotheses.stubble_det_pair"))
    out["hypotheses.stubble_det_pair.calls"] = float(sdp.sum())
    out["hypotheses.stubble_det_pair.certify_calls"] = float(
        (cert & s.has_ancestor_in(sdp)).sum())
    out["hypotheses.family_s"] = total(s.outermost(
        "hypotheses.stubble_prob_family", "hypotheses.snake_prob_family"))
    out["hypotheses.snake_det_pair_s"] = total(s.outermost("hypotheses.snake_det_pair"))
    out["hypotheses.spiral_verify_s"] = total(s.outermost("hypotheses.spiral_verify"))

    integ = s.mask("flow.integrate")
    out["flow.integrate.calls"] = float(integ.sum())
    out["flow.integrate_s"] = total(s.outermost("flow.integrate"))
    out["flow.steps_accepted"] = total(integ, w0)
    # every attempted step evaluates six stages; the first evaluation is k1 at x0
    attempts = np.where(w1 > 0, (w1 - 1.0) / 6.0, 0.0)
    out["flow.steps_rejected"] = total(integ, attempts - w0)
    out["flow.nfev"] = total(integ, w1)
    out["flow.state_width"] = float(w2[integ].max()) if integ.any() else 0.0
    fa = s.mask("flow.flow_at")
    out["flow.flow_at.calls"] = float(fa.sum())
    out["flow.flow_at_s"] = total(fa)

    tube_fns = ("geometry.tube_cover_check", "geometry.tube_distance",
                "geometry.point_tube_distance")
    out["geometry.cover_s"] = total(s.outermost("geometry.tube_cover_check"))
    out["geometry.tube_s"] = total(s.outermost(*tube_fns))
    out["geometry.point_slices"] = total(s.mask("geometry._slice_distances"), w0)
    ptd = s.mask("geometry.point_tube_distance")
    out["geometry.point_tube_distance.calls"] = float(ptd.sum())
    out["geometry.point_tube_distance_s"] = total(s.outermost("geometry.point_tube_distance"))

    cc = s.mask("statmodel.check_cover")
    out["statmodel.check_cover_s"] = total(s.outermost("statmodel.check_cover"))
    out["statmodel.check_cover.centers"] = total(cc, w0)
    out["statmodel.psi_chi_s"] = total(s.outermost("statmodel.psi_chi_measure"))
    out["statmodel.flow_states_s"] = total(s.outermost("statmodel.flow_states"))
    out["statmodel.scheme_kl_s"] = total(s.outermost("statmodel.scheme_kl"))
    mc = s.mask("statmodel.monte_carlo_two_point")
    out["statmodel.mc_s"] = total(mc)
    out["statmodel.mc.trials"] = total(mc, w0)

    own = s.self_time()
    lay = s.layer()
    for name in LAYERS:
        out[f"{name}.self_s"] = total(lay == name, own)
    return out


def _ratio(num: float, den: float, scale: float) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(sums: dict) -> dict:
    """Per-layer metrics (name -> value) from additive totals over a round.

    The totals pass through as metrics of their own; the ratios are added.
    """
    g = sums.get
    m = dict(sums)
    m["kernels.ns_per_point"] = _ratio(g("kernels.eval_s"), g("kernels.points"), 1e9)
    m["smoothness.certify.us_per_sample"] = _ratio(
        g("smoothness.certify_s"), g("smoothness.certify.samples"), 1e6)
    m["hypotheses.stubble_det_pair.certify_calls"] = _ratio(
        g("hypotheses.stubble_det_pair.certify_calls"),
        g("hypotheses.stubble_det_pair.calls"), 1.0)
    m["flow.us_per_step"] = _ratio(g("flow.integrate_s"), g("flow.steps_accepted"), 1e6)
    m["flow.us_per_fev"] = _ratio(g("flow.integrate_s"), g("flow.nfev"), 1e6)
    m["flow.flow_at.us_per_call"] = _ratio(g("flow.flow_at_s"), g("flow.flow_at.calls"), 1e6)
    m["geometry.ns_per_point_slice"] = _ratio(g("geometry.tube_s"),
                                              g("geometry.point_slices"), 1e9)
    m["geometry.point_tube_distance.ms_per_call"] = _ratio(
        g("geometry.point_tube_distance_s"), g("geometry.point_tube_distance.calls"), 1e3)
    m["statmodel.check_cover.us_per_center"] = _ratio(
        g("statmodel.check_cover_s"), g("statmodel.check_cover.centers"), 1e6)
    m["statmodel.mc.ns_per_trial"] = _ratio(g("statmodel.mc_s"), g("statmodel.mc.trials"), 1e9)
    m["trace.spans"] = g("spans", 0.0)
    return m


def add(total: dict, part: dict) -> dict:
    """Sum two raw-sum dicts; the widest state is a maximum, not a sum."""
    out = dict(total)
    for key, val in part.items():
        if key == "flow.state_width":
            out[key] = max(out.get(key, 0.0), val)
        else:
            out[key] = out.get(key, 0.0) + val
    return out
