"""obs-gating good fixture: structurally-gated site with a pragma reason."""


def _emit(event, obs):
    # obs: gated-by-caller (every caller guards on obs.deciding())
    obs.decision(event)
