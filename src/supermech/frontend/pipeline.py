"""Stage orchestration: model -> legendre -> dirac -> hamilton-jacobi -> flow."""
from __future__ import annotations

from ..dirac import run_dirac
from ..errors import FlowError
from ..hamilton_jacobi import (
    build_hj_system,
    closure_loop,
    cross_check_dirac,
    total_differentials,
)
from ..legendre import analyze
from ..numeric_flow import integrate_flow
from .elaborator import elaborate
from .flowconfig import parse_path_config
from .parser import ModelDocument

STAGES = ("legendre", "dirac", "hj", "flow", "all")


class PipelineResult:
    __slots__ = ("elaborated", "stage", "tolerance", "legres", "analysis", "hj_system",
                 "tds", "closure", "crosscheck", "flow_path", "flow")

    def __init__(self, elaborated, stage, tolerance, legres=None, analysis=None,
                 hj_system=None, tds=None, closure=None, crosscheck=None,
                 flow_path=None, flow=None):
        self.elaborated = elaborated
        self.stage: str = stage
        self.tolerance: float = tolerance
        self.legres = legres
        self.analysis = analysis
        self.hj_system = hj_system
        self.tds = tds
        self.closure = closure
        self.crosscheck = crosscheck
        self.flow_path = flow_path
        self.flow = flow


def run_pipeline(doc, stage="all", path_text=None, max_closure_rounds=32,
                 tolerance=1e-8):
    """Execute the requested stages for one model document."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    elaborated = doc if not isinstance(doc, ModelDocument) else elaborate(doc)
    result = PipelineResult(elaborated, stage, tolerance)
    result.legres = analyze(elaborated.model)
    if stage == "legendre":
        return result
    result.analysis = run_dirac(result.legres)
    if stage == "dirac":
        return result
    result.hj_system = build_hj_system(result.legres)
    result.tds = total_differentials(result.hj_system)
    result.closure = closure_loop(result.hj_system, max_rounds=max_closure_rounds)
    result.crosscheck = cross_check_dirac(result.closure, result.analysis)
    if stage == "hj":
        return result
    if path_text is None:
        if stage == "flow":
            raise FlowError("stage flow requires a path configuration")
        return result
    path, init = parse_path_config(path_text, elaborated, result.hj_system)
    result.flow_path = path
    result.flow = integrate_flow(result.tds, path, init, report=result.closure)
    return result
