"""Sweep plans travel on results; the old mutable side-channels are gone.

``ReachabilityEngine.sweep_targets_many``, every backend's
``sweep_targets_many`` and ``AccessControlEngine.audiences_with_plans``
return the plan they ran next to the audiences.  The attributes that once
held "the last plan" (``last_sweep_plan``, ``last_audience_plans``) no
longer exist, and the plan-returning APIs emit no warnings.
"""

from __future__ import annotations

import warnings

import pytest

from repro.policy.engine import AccessControlEngine
from repro.policy.path_expression import PathExpression
from repro.policy.rules import AccessRule
from repro.policy.store import PolicyStore
from repro.reachability.engine import ReachabilityEngine, create_evaluator

BACKENDS = ["bfs", "dfs", "transitive-closure", "cluster-index"]


def _silently(call):
    """Run ``call()`` and assert it emits no warning of any kind."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    assert not caught, [str(w.message) for w in caught]
    return result


class TestEnginePlans:
    def test_plan_comes_back_with_the_audiences(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        audiences, plan = _silently(
            lambda: engine.sweep_targets_many(["Alice", "Bill"], "friend+[1]")
        )
        assert plan is not None and plan.owners == 2
        assert set(audiences) == {"Alice", "Bill"}
        # Memo-warm call: nothing was swept, so no plan comes back.
        warm, plan = engine.sweep_targets_many(["Alice", "Bill"], "friend+[1]")
        assert plan is None and warm == audiences

    def test_audiences_only_form_matches(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        expected, _ = engine.sweep_targets_many(["Alice", "Bill"], "friend+[1]")
        fresh = ReachabilityEngine(figure1, "bfs")
        assert fresh.find_targets_many(["Alice", "Bill"], "friend+[1]") == expected

    def test_side_channel_is_gone(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        engine.find_targets_many(["Alice"], "friend+[1]")
        assert not hasattr(engine, "last_sweep_plan")


class TestBackendPlans:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_returns_its_plan(self, backend, figure1):
        evaluator = create_evaluator(backend, figure1)
        expression = PathExpression.parse("friend+[1]")
        audiences, plan = _silently(
            lambda: evaluator.sweep_targets_many(["Alice"], expression)
        )
        assert plan is not None and plan.owners == 1
        assert audiences == evaluator.find_targets_many(["Alice"], expression)
        assert not hasattr(evaluator, "last_sweep_plan")


class TestPolicyPlans:
    def _engine(self, figure1) -> AccessControlEngine:
        store = PolicyStore()
        store.share("Alice", "photos")
        store.add_rule(AccessRule.build("photos", "Alice", "friend+[1,2]"))
        return AccessControlEngine(figure1, store, backend="bfs")

    def test_plans_come_back_with_the_audiences(self, figure1):
        engine = self._engine(figure1)
        audiences, plans = _silently(lambda: engine.audiences_with_plans(["photos"]))
        assert set(plans) == {"friend+[1,2]"} and audiences["photos"]
        assert self._engine(figure1).authorized_audiences(["photos"]) == audiences

    def test_side_channel_is_gone(self, figure1):
        engine = self._engine(figure1)
        engine.authorized_audiences(["photos"])
        assert not hasattr(engine, "last_audience_plans")
