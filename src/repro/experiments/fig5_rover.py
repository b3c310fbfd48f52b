"""Experiment E-F5: the rover case study (paper Fig. 5a and Fig. 5b).

Compares HYDRA-C against HYDRA on the simulated rover: average
intrusion-detection latency (Fig. 5a) and average context switches per
45-second observation window (Fig. 5b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.campaign.spec import TICK_LIMIT
from repro.errors import ConfigurationError
from repro.rover.case_study import ROVER_HORIZON_TICKS, RoverCaseStudy, RoverComparisonResult

__all__ = ["Fig5Result", "run_fig5", "format_fig5"]


@dataclass(frozen=True)
class Fig5Result:
    """The two bars of Fig. 5a and Fig. 5b, per scheme."""

    comparison: RoverComparisonResult
    num_trials: int
    horizon: int

    @property
    def mean_detection_latency(self) -> Dict[str, float]:
        return {
            scheme: self.comparison.mean_detection_latency(scheme)
            for scheme in self.comparison.schemes()
        }

    @property
    def mean_context_switches(self) -> Dict[str, float]:
        return {
            scheme: self.comparison.mean_context_switches(scheme)
            for scheme in self.comparison.schemes()
        }

    @property
    def detection_speedup(self) -> float:
        """Fractional detection improvement of HYDRA-C over HYDRA (paper: ~0.19)."""
        return self.comparison.detection_speedup("HYDRA-C", "HYDRA")

    @property
    def context_switch_ratio(self) -> float:
        """Context-switch overhead of HYDRA-C relative to HYDRA (paper: ~1.75)."""
        return self.comparison.context_switch_ratio("HYDRA-C", "HYDRA")


def run_fig5(
    num_trials: int = 35,
    horizon: int = ROVER_HORIZON_TICKS,
    seed: Optional[int] = 2020,
) -> Fig5Result:
    """Run the Fig. 5 comparison with the paper's trial count by default.

    Invalid knobs raise :class:`~repro.errors.ConfigurationError` (the
    CLI's one-line error), like the campaign path's
    :class:`~repro.campaign.CampaignSpec`.
    """
    if num_trials < 1:
        raise ConfigurationError("num_trials must be >= 1")
    if not 1 <= horizon < TICK_LIMIT:
        raise ConfigurationError("horizon must be >= 1 and < 2**62")
    if seed is not None and seed < 0:
        raise ConfigurationError("seed must be >= 0")
    study = RoverCaseStudy(horizon=horizon, num_trials=num_trials, seed=seed)
    comparison = study.run_comparison()
    return Fig5Result(comparison=comparison, num_trials=num_trials, horizon=horizon)


def format_fig5(result: Fig5Result) -> str:
    """Render the Fig. 5 numbers as a text table."""
    lines: List[str] = [
        f"Fig. 5 -- rover case study ({result.num_trials} trials, "
        f"{result.horizon} ms window)",
        f"{'scheme':<12} {'mean detection latency [ms]':>28} {'mean context switches':>24}",
    ]
    for scheme in result.comparison.schemes():
        lines.append(
            f"{scheme:<12} {result.mean_detection_latency[scheme]:>28.1f} "
            f"{result.mean_context_switches[scheme]:>24.1f}"
        )
    lines.append(
        f"HYDRA-C detects {result.detection_speedup * 100:.1f}% faster than HYDRA "
        f"(paper: 19.05%); context-switch ratio {result.context_switch_ratio:.2f}x "
        "(paper: 1.75x)"
    )
    return "\n".join(lines)
