"""Differential suite: HYDRA's compiled security allocation equals the python one.

On the compiled kernel tier :meth:`Hydra.allocate_security` places every
security task of a task set in one C call (``hydra_allocate_security``);
on the python tier (and for guard fallbacks) the placement loop
:meth:`Hydra._pack` runs over a :class:`~repro.rta.SecurityPacker`.  On
random 1-8-core task sets -- cores with identical RT contents and
identical security tasks (so best-fit utilization and response ties are
common), claim-annotated sets under PIP/PCP blocking, and security tasks
that fit nowhere -- both tiers must give the same mapping and responses
(dict order included) and the same failed task, and blocking-free
allocations must equal the frozen
:func:`~repro.batch.reference._reference_allocate_security`.

Where the backend is unavailable the compiled tier is the warned python
fallback, so the suite runs (trivially equal) on any machine.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hydra import Hydra
from repro.batch.reference import _reference_allocate_security
from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.model.tasks import ResourceClaim
from repro.platform.models import PlatformModel
from repro.rta import RtaContext, kernel_available
from repro.rta.compiled import INT31_LIMIT
from repro.schedulability.partitioned import rt_tasks_by_core


def _context(kernel, platform, protocol="none"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return RtaContext(
            platform,
            kernel=kernel,
            platform_model=PlatformModel.parse(protocol=protocol),
        )


def _claims(draw, wcet):
    """At most one section on a shared resource, inside *wcet*."""
    if not draw(st.booleans()):
        return ()
    duration = draw(st.integers(min_value=1, max_value=wcet))
    return (ResourceClaim(resource="bus", start=wcet - duration, duration=duration),)


@st.composite
def scenarios(draw):
    """A platform, a task set, its RT partition and a resource protocol."""
    num_cores = draw(st.integers(min_value=1, max_value=8))
    # A per-core RT template: every core gets it or nothing, so several
    # cores often carry the same load (best-fit utilization ties).
    template = [
        (draw(st.integers(min_value=1, max_value=6)),
         draw(st.sampled_from((10, 20, 25, 40))))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    rt_tasks, allocation = [], {}
    for core in range(num_cores):
        if draw(st.booleans()):
            continue
        for wcet, period in template:
            name = f"rt{len(rt_tasks)}"
            rt_tasks.append(
                RealTimeTask(
                    name=name, wcet=wcet, period=period, claims=_claims(draw, wcet)
                )
            )
            allocation[name] = core
    # Few distinct security shapes: equal utilizations and responses; a
    # large wcet against a short T^max fits nowhere.
    shapes = st.sampled_from(((3, 60), (3, 60), (5, 120), (8, 90), (30, 35)))
    security_tasks = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        wcet, max_period = draw(shapes)
        security_tasks.append(
            SecurityTask(
                name=f"sec{index}",
                wcet=wcet,
                max_period=max_period,
                claims=_claims(draw, wcet),
            )
        )
    protocol = draw(st.sampled_from(("none", "pip", "pcp")))
    taskset = TaskSet.create(rt_tasks, security_tasks)
    return Platform(num_cores=num_cores), taskset, allocation, protocol


def _allocate(kernel, platform, taskset, allocation, protocol):
    """``(mapping items, response items, failed task)`` and the stats."""
    context = _context(kernel, platform, protocol)
    context.prime_blocking(taskset)
    result = Hydra(platform).allocate_security(
        taskset, rt_tasks_by_core(taskset, allocation, platform), context
    )
    outcome = (
        list(result.mapping.items()),
        list(result.response_times.items()),
        result.failed_task,
    )
    return outcome, context.stats


class TestAllocationDifferential:
    @given(scenarios())
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_python_equals_frozen(self, data):
        platform, taskset, allocation, protocol = data
        compiled, compiled_stats = _allocate(
            "compiled", platform, taskset, allocation, protocol
        )
        python, python_stats = _allocate(
            "python", platform, taskset, allocation, protocol
        )
        assert compiled == python
        if kernel_available():
            # One compiled solve per Eq. 1 fixed point the packer runs.
            assert compiled_stats.exact_solves == 0
            assert compiled_stats.compiled_solves == python_stats.exact_solves
        if protocol == "none":
            mapping, failed = _reference_allocate_security(
                platform, taskset, rt_tasks_by_core(taskset, allocation, platform)
            )
            assert compiled[0] == list(mapping.items())
            assert compiled[2] == failed

    def test_utilization_tie_goes_to_the_smaller_response_then_core(self):
        """Cores 0, 2 and 3 carry the same load (0.2).  Core 0's RT task
        interferes more, so the response tie-break rules it out, and the
        core index settles 2 against 3; the next task then prefers the now
        fuller core 2.  The last task fits nowhere."""
        platform = Platform(num_cores=4)
        taskset = TaskSet.create(
            [
                RealTimeTask(name="a", wcet=4, period=20),
                RealTimeTask(name="b", wcet=1, period=5),
                RealTimeTask(name="b2", wcet=1, period=5),
            ],
            [
                SecurityTask(name="s0", wcet=3, max_period=60),
                SecurityTask(name="s1", wcet=3, max_period=60),
                SecurityTask(name="s2", wcet=50, max_period=55),
                SecurityTask(name="s3", wcet=50, max_period=55),
            ],
        )
        allocation = {"a": 0, "b": 2, "b2": 3}
        for kernel in ("compiled", "python"):
            outcome, _ = _allocate(kernel, platform, taskset, allocation, "none")
            assert outcome == (
                [("s0", 2), ("s1", 2), ("s2", 1)],
                [("s0", 4), ("s1", 8), ("s2", 50), ("s3", None)],
                "s3",
            ), kernel

    @pytest.mark.parametrize("field", ["rt-period", "max-period"])
    def test_operand_at_int31_runs_python(self, field):
        """An operand at ``2**31`` keeps the whole allocation on the
        packer; with the operand in every probe no solve reaches C."""
        huge = INT31_LIMIT
        rt_period = huge if field == "rt-period" else 50
        max_period = huge if field == "max-period" else 400
        taskset = TaskSet.create(
            [
                RealTimeTask(name="rt0", wcet=2, period=rt_period),
                RealTimeTask(name="rt1", wcet=3, period=rt_period),
            ],
            [
                SecurityTask(name=f"sec{index}", wcet=4 + index, max_period=max_period)
                for index in range(3)
            ],
        )
        platform = Platform(num_cores=2)
        allocation = {"rt0": 0, "rt1": 1}
        compiled, stats = _allocate("compiled", platform, taskset, allocation, "none")
        python, _ = _allocate("python", platform, taskset, allocation, "none")
        assert compiled == python
        assert compiled[2] is None
        assert stats.compiled_solves == 0
        assert stats.exact_solves > 0
