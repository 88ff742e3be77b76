"""obs-gating bad fixture: event dict built before any guard check."""


def record_dispatch(plan, obs):
    obs.decision({"op": plan.op, "rule": plan.rule})
