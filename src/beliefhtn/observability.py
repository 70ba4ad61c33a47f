"""Places, attribute placement rules, OBS/INF classes and situation assessment.

Each state-variable declaration classifies its attributes observable (OBS)
or inferrable (INF), independently of the state.  A placement rule maps the
attributes matching its template to the place where they can be assessed:
either a fixed place, or the current value of a reference attribute (e.g.
an object located wherever its own location attribute says).  Attributes
without a rule are never spatially assessable.

Situation assessment overwrites, in the observer's belief, every OBS
attribute whose place (in the ground truth) equals the observer's current
place (in the ground truth).  It is idempotent and never touches INF
attributes.  The lifted rules are grounded, and placements and agent
locations resolved to dense attribute indices, when the model is built;
assessment reads beliefs by index, and raises :class:`BadRule` when it
meets a reference whose value is not a place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BadArgument, BadRule, UnknownAttribute
from .state import AttrRef, BeliefState, GroundedAttribute, ObsClass, Universe, Value


@dataclass(frozen=True)
class PlacementRule:
    """Where the attributes matching ``template`` are assessable.

    Each template argument is a distinct ``?var``, bound by position to the
    arguments of a grounded attribute.  Exactly one of ``place`` (a fixed
    place) and ``reference`` is set; ``reference`` names an attribute, over
    constants and the template's variables, whose current value *is* the
    place.
    """

    template: AttrRef
    place: Optional[str] = None
    reference: Optional[AttrRef] = None

    def __post_init__(self) -> None:
        if (self.place is None) == (self.reference is None):
            raise BadArgument("placement rule needs exactly one of place/reference")
        args = self.template.args
        if not all(a.startswith("?") for a in args) or len(set(args)) != len(args):
            raise BadArgument(f"{self}: template arguments must be distinct variables")
        for arg in self.reference.args if self.reference is not None else ():
            if arg.startswith("?") and arg not in args:
                raise BadArgument(f"{self}: {arg} is not a variable of the template")

    def __str__(self) -> str:
        if self.place is not None:
            return f"place {self.template} at {self.place}"
        return f"place {self.template} value-of {self.reference}"


PLACES_GROUP = "Places"  # the group whose members are places
LOCATION_SYMBOL = "AgtAt"  # AgtAt(agent) is the agent's current place


class ObservabilityModel:
    """The grounded placement map, by index, of the lifted rules.

    ``placements`` maps an attribute index to (reference index or None,
    fixed place or None); ``assessable`` lists the entries of OBS
    attributes in index order.  A rule is rejected when its template has
    the wrong arity, its fixed place is not a member of ``Places``, or it
    places a symbol that an earlier rule already places.
    """

    def __init__(self, universe: Universe, rules: Iterable[PlacementRule]):
        self.universe = universe
        if PLACES_GROUP not in universe.groups:
            raise BadArgument(f"no group {PLACES_GROUP!r} declared")
        self.places = universe.groups[PLACES_GROUP]
        self.placements: dict[int, tuple[Optional[int], Optional[str]]] = {}
        placed: set[str] = set()
        for rule in rules:
            symbol, variables = rule.template.symbol, rule.template.args
            decl = universe.decls.get(symbol)
            if decl is None:
                raise UnknownAttribute(f"{rule}: undeclared attribute {symbol!r}")
            if len(variables) != decl.arity:
                raise BadArgument(
                    f"{rule}: {symbol!r} takes {decl.arity} argument(s), got {len(variables)}"
                )
            if rule.place is not None and rule.place not in self.places:
                raise BadArgument(f"{rule}: {rule.place!r} is not a member of {PLACES_GROUP!r}")
            if symbol in placed:
                raise BadArgument(f"{rule}: {symbol!r} is already placed")
            placed.add(symbol)
            for index, attr in enumerate(universe.attributes):
                if attr.symbol != symbol:
                    continue
                reference = None
                if rule.reference is not None:
                    binding = dict(zip(variables, attr.args))
                    ref = GroundedAttribute(
                        rule.reference.symbol,
                        tuple(binding.get(a, a) for a in rule.reference.args),
                    )
                    reference = universe.index_of(ref)
                self.placements[index] = (reference, rule.place)
        self.assessable = tuple(
            (index, reference, place)
            for index, (reference, place) in sorted(self.placements.items())
            if self.obs_class(universe.attributes[index]) is ObsClass.OBS
        )
        self.locations: dict[str, int] = {
            attr.args[0]: index
            for index, attr in enumerate(universe.attributes)
            if attr.symbol == LOCATION_SYMBOL and len(attr.args) == 1
        }

    def obs_class(self, attr: GroundedAttribute) -> ObsClass:
        return self.universe.decls[attr.symbol].obs

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
            index = self.universe.index_of(GroundedAttribute(LOCATION_SYMBOL, (agent,)))
        return state.values[index]

    def copresent(self, a1: str, a2: str, state: BeliefState) -> bool:
        return self.agent_place(a1, state) == self.agent_place(a2, state)

    def assess(self, observer_belief: BeliefState, world: BeliefState) -> BeliefState:
        """Align every OBS attribute placed at the observer's location.

        Both the observer's location and each attribute's place are taken
        from the ground truth: assessment reflects what is actually visible,
        not what the observer believes is visible.  Returns the observer's
        belief itself, with no update list built, when nothing visible
        diverges.
        """
        here = self.agent_place(observer_belief.owner, world)
        truth = world.values
        believed = observer_belief.values
        places = self.places.members
        updates: Optional[list[tuple[int, Value]]] = None
        for index, reference, place in self.assessable:
            if reference is not None:
                place = truth[reference]
                if place not in places:
                    self._referenced_place(index, reference, truth)  # raises BadRule
            if place == here and believed[index] != truth[index]:
                if updates is None:
                    updates = []
                updates.append((index, truth[index]))
        if updates is None:
            return observer_belief
        return observer_belief.with_values_at(updates)
