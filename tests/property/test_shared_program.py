"""One plan's program serves many instances: same bits as running set by set.

A plan lowers its program on its second execution and keeps it, one per
instance layout and tip kinds, for every later instance. For random problems of at
most 10 tips the plan is compiled on instance A, then executed on:

* B, a fresh instance with other tip data of the same kinds (served the
  program as it is);
* C, with some compact tips switched to explicit partials (lowered for
  its kinds, never served A's program, which A keeps);
* D, in float32, and E, with the upper bank enabled (other layouts);
* F, with a tip that has no data (the ``ValueError`` of lowering).

Every logL must equal the instance's one-set, set-by-set execution bit
for bit, and two threads running one plan on two instances must each get
their serial bits.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.beagle import BeagleInstance
from repro.core import create_instance, execute_plan, make_plan
from repro.core.planner import load_parameters
from repro.data import random_patterns
from repro.models import HKY85, single_rate
from repro.trees import balanced_tree, pectinate_tree
from tests.strategies import tree_strategy

MODEL = HKY85(2.0, [0.3, 0.2, 0.2, 0.3])


def _patterns(tree, seed, explicit):
    """Random patterns; the taxa in ``explicit`` get explicit partials."""
    rng = np.random.default_rng(seed)
    patterns = random_patterns(tree.tip_names(), 24, rng=rng)
    partials = {
        name: rng.uniform(0.05, 1.0, size=(patterns.n_patterns, 4))
        for name in explicit
    }
    return dataclasses.replace(patterns, partials=partials)


def _set_by_set(plan, instance):
    """The plan on ``instance`` with every set run as a one-set program:
    a copy of the plan is on its first execution, so it binds nothing."""
    return execute_plan(instance, dataclasses.replace(plan))


@given(
    tree_strategy(min_tips=3, max_tips=10),
    st.integers(0, 2**31 - 1),
    st.integers(0, 2),
    st.booleans(),
)
def test_one_program_serves_many_instances(tree, seed, n_explicit, scaling):
    names = sorted(tree.tip_names())
    explicit = names[:n_explicit]
    plan = make_plan(tree, "concurrent", scaling=scaling)

    def instance(patterns, **kw):
        return create_instance(tree, MODEL, patterns, scaling=scaling, **kw)

    patterns_a = _patterns(tree, seed, explicit)
    a = instance(patterns_a)
    values = {execute_plan(a, plan) for _ in range(3)}
    program = plan.programs.get(a)
    assert program is not None
    assert values == {_set_by_set(plan, instance(patterns_a))}

    # B: other data, same tip kinds — the program as it is.
    patterns_b = _patterns(tree, seed + 1, explicit)
    b = instance(patterns_b)
    assert plan.programs.get(b) is program
    assert execute_plan(b, plan) == _set_by_set(plan, instance(patterns_b))
    assert plan.programs.get(b) is program

    # C: more explicit tips — lowered for the new kinds.
    patterns_c = _patterns(tree, seed + 2, names[: n_explicit + 1])
    c = instance(patterns_c)
    assert plan.programs.get(c) is None
    assert execute_plan(c, plan) == _set_by_set(plan, instance(patterns_c))
    assert plan.programs.get(c) not in (None, program)

    # D: float32 — another layout.
    d = instance(patterns_b, dtype=np.float32)
    assert plan.programs.get(d) is None
    assert execute_plan(d, plan) == _set_by_set(
        plan, instance(patterns_b, dtype=np.float32)
    )
    assert plan.programs.get(d) is not None

    # E: the upper bank adds store rows — another layout.
    e, reference = instance(patterns_b), instance(patterns_b)
    for inst in (e, reference):
        inst.enable_upper_partials()
    assert plan.programs.get(e) is None
    assert execute_plan(e, plan) == _set_by_set(plan, reference)
    assert plan.programs.get(e) is not None

    # F: a tip with no data raises what lowering raises for a fresh plan.
    def empty_tip():
        f = BeagleInstance(
            tip_count=a.tip_count,
            partials_buffer_count=a.partials_buffer_count,
            matrix_count=a.matrix_buffer_count,
            pattern_count=a.pattern_count,
            state_count=4,
            scale_buffer_count=a.scale.count,
        )
        load_parameters(f, MODEL, patterns_b, single_rate())
        for tip in range(1, a.tip_count):
            f.set_tip_states(tip, a._tip_codes_dense[tip])
        return f

    with pytest.raises(ValueError, match="tip buffer 0 has no data"):
        _set_by_set(plan, empty_tip())
    with pytest.raises(ValueError, match="tip buffer 0 has no data"):
        execute_plan(empty_tip(), plan)

    # A keeps its program beside C's.
    assert plan.programs.get(a) is program
    assert execute_plan(a, plan) in values
    assert len(plan.programs.by_key) == 4  # A (and B), C, D, E


@pytest.mark.parametrize("same_kinds", [True, False], ids=["shared", "two-kinds"])
@pytest.mark.parametrize(
    "tree",
    [balanced_tree(10, branch_length=0.1), pectinate_tree(9, branch_length=0.07)],
    ids=["balanced", "pectinate"],
)
def test_two_threads_share_one_plan(tree, same_kinds, monkeypatch):
    """Two threads run one new plan on two instances 200 times each; the
    first executions, the lowering and every run race. With tips of the
    same kinds the instances share one program; otherwise each has its
    own. Each run has its own cursor, so past the plan's
    first execution (one per thread at most) no set falls back to a
    one-set program."""
    from repro.beagle import instance as instance_module

    plan = make_plan(tree, "concurrent")
    first_tip = sorted(tree.tip_names())[:1]
    cases = [
        _patterns(tree, 1, []),
        _patterns(tree, 2, [] if same_kinds else first_tip),
    ]
    expected = [
        _set_by_set(plan, create_instance(tree, MODEL, patterns)) for patterns in cases
    ]
    assert expected[0] != expected[1]
    got = [[], []]
    one_set = []
    execute_set = instance_module.execute_set

    def counting(instance, ops):
        one_set.append(len(ops))  # list.append is atomic
        execute_set(instance, ops)

    monkeypatch.setattr(instance_module, "execute_set", counting)

    def run(i):
        instance = create_instance(tree, MODEL, cases[i])
        for _ in range(200):
            got[i].append(execute_plan(instance, plan))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[expected[0]] * 200, [expected[1]] * 200]
    assert len(one_set) <= 2 * plan.n_launches
    assert len(plan.programs.by_key) == (1 if same_kinds else 2)
