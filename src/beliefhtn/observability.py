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
attributes.  Placements and agent locations are resolved to dense attribute
indices when the model is built, and assessment reads beliefs by index.
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
    """OBS/INF classification plus the grounded placement map, by index.

    ``placements`` maps an attribute index to (reference index or None,
    fixed place or None); ``assessable`` lists the OBS entries in index order.
    """

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
        self.placements: dict[int, tuple[Optional[int], Optional[str]]] = {}
        for attr, rule in rules.items():
            reference = None if rule.reference is None else universe.index_of(rule.reference)
            self.placements[universe.index_of(attr)] = (reference, rule.fixed_place)
        self.assessable = tuple(
            (index, reference, place)
            for index, (reference, place) in sorted(self.placements.items())
            if self.classes[universe.attributes[index].symbol] is ObsClass.OBS
        )
        self.locations: dict[str, int] = {
            attr.args[0]: index
            for index, attr in enumerate(universe.attributes)
            if attr.symbol == location_symbol and len(attr.args) == 1
        }

    def obs_class(self, attr: GroundedAttribute) -> ObsClass:
        return self.classes[attr.symbol]

    def place_of(self, attr: GroundedAttribute, state: BeliefState) -> Optional[str]:
        """The place where the attribute is currently assessable, if any."""
        index = self.universe.index_of(attr)
        placement = self.placements.get(index)
        if placement is None:
            return None
        reference, place = placement
        if reference is None:
            return place
        return self._referenced_place(index, reference, state.values)

    def _referenced_place(self, index: int, reference: int, values: tuple[Value, ...]) -> str:
        value = values[reference]
        if value not in self.places.members:
            attributes = self.universe.attributes
            raise BadRule(
                f"placement of {attributes[index]} references {attributes[reference]} "
                f"whose value {value!r} is not a place"
            )
        return value

    def agent_place(self, agent: str, state: BeliefState) -> Value:
        index = self.locations.get(agent)
        if index is None:  # raises, naming what is undeclared
            index = self.universe.index_of(GroundedAttribute(self.location_symbol, (agent,)))
        return state.values[index]

    def copresent(self, a1: str, a2: str, state: BeliefState) -> bool:
        return self.agent_place(a1, state) == self.agent_place(a2, state)

    def assess(self, observer_belief: BeliefState, world: BeliefState) -> BeliefState:
        """Align every OBS attribute placed at the observer's location.

        Both the observer's location and each attribute's place are taken
        from the ground truth: assessment reflects what is actually visible,
        not what the observer believes is visible.  Returns the observer's
        belief itself when nothing changes.
        """
        here = self.agent_place(observer_belief.owner, world)
        truth = world.values
        believed = observer_belief.values
        updates: list[tuple[int, Value]] = []
        for index, reference, place in self.assessable:
            if reference is not None:
                place = self._referenced_place(index, reference, truth)
            if place == here and believed[index] != truth[index]:
                updates.append((index, truth[index]))
        return observer_belief.with_values_at(updates)
