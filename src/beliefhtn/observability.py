"""Places, attribute placement rules, OBS/INF classes and situation assessment.

An attribute template is classified observable (OBS) or inferrable (INF)
independently of the state.  A placement rule optionally maps each grounded
attribute to the place where it can be assessed: either a fixed place, or
the current value of a reference attribute (e.g. an object located wherever
its own location attribute says).  Attributes without a rule are never
spatially assessable.

Situation assessment overwrites, in the observer's belief, every OBS
attribute whose place (in the ground truth) equals the observer's current
place (in the ground truth).  It is idempotent and never touches INF
attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import BadArgument, BadRule
from .state import BeliefState, GroundedAttribute, Universe, Value


class ObsClass(Enum):
    OBS = "obs"
    INF = "inf"


@dataclass(frozen=True)
class PlacementRule:
    """Where one grounded attribute is assessable.

    Exactly one of ``fixed_place`` / ``reference`` is set.  ``reference``
    names another grounded attribute whose current value *is* the place.
    """

    fixed_place: Optional[str] = None
    reference: Optional[GroundedAttribute] = None

    def __post_init__(self) -> None:
        if (self.fixed_place is None) == (self.reference is None):
            raise BadArgument("placement rule needs exactly one of place/reference")


class ObservabilityModel:
    """OBS/INF classification plus the grounded placement map."""

    def __init__(
        self,
        universe: Universe,
        classes: Mapping[str, ObsClass],
        rules: Mapping[GroundedAttribute, PlacementRule],
        places_group: str = "Places",
        location_symbol: str = "AgtAt",
    ):
        self.universe = universe
        if places_group not in universe.groups:
            raise BadArgument(f"no group {places_group!r} declared")
        self.places = universe.groups[places_group]
        self.location_symbol = location_symbol
        missing = [s for s in universe.decls if s not in classes]
        if missing:
            raise BadArgument(
                "observability class missing for: " + ", ".join(sorted(missing))
            )
        self.classes = dict(classes)
        for attr in rules:
            universe.check_attr(attr)
        self.rules = dict(rules)

    def obs_class(self, attr: GroundedAttribute) -> ObsClass:
        return self.classes[attr.symbol]

    def place_of(self, attr: GroundedAttribute, state: BeliefState) -> Optional[str]:
        """The place where the attribute is currently assessable, if any."""
        rule = self.rules.get(attr)
        if rule is None:
            return None
        if rule.fixed_place is not None:
            return rule.fixed_place
        assert rule.reference is not None
        value = state.get(rule.reference)
        if value not in self.places:
            raise BadRule(
                f"placement of {attr} references {rule.reference} whose value "
                f"{value!r} is not a place"
            )
        return value

    def agent_place(self, agent: str, state: BeliefState) -> Value:
        return state.get(self.universe.attr(self.location_symbol, agent))

    def copresent(self, a1: str, a2: str, state: BeliefState) -> bool:
        return self.agent_place(a1, state) == self.agent_place(a2, state)

    def assess(self, observer_belief: BeliefState, world: BeliefState) -> BeliefState:
        """Align every OBS attribute placed at the observer's location.

        Both the observer's location and each attribute's place are taken
        from the ground truth: assessment reflects what is actually visible,
        not what the observer believes is visible.
        """
        here = self.agent_place(observer_belief.owner, world)
        belief = observer_belief
        for attr in self.universe.attributes:
            if self.classes[attr.symbol] is not ObsClass.OBS:
                continue
            if self.place_of(attr, world) == here:
                belief = belief.with_value(attr, world.get(attr))
        return belief
