"""obs-gating good fixture: guard first, event dict only when active."""


def record_dispatch(plan, obs):
    if obs.deciding():
        obs.decision({"op": plan.op, "rule": plan.rule})
