"""Typed constant universe, state-variable declarations and belief states.

A :class:`StateVariableDecl` is the form the domain-file parser builds: the
symbol's typed parameters, its value range and its observability class.
:class:`AttrRef` is the lifted attribute (or task) reference of schemas and
placement rules.

A universe interns every grounded attribute to a dense index at load time,
so a belief state is a fixed-width tuple of values: comparison, hashing and
full-state diffs are all O(#attributes).  Grounded operators and the
situation-assessment table hold these indices, resolved when the bundle is
built.  Belief states are immutable; "mutation" is copy-on-change via
:meth:`BeliefState.with_values_at` (by index) or ``with_value``: a write
that changes no value returns the same belief object, so a step that
changes nothing builds nothing.

Values are always drawn from finite domains, which the universe resolves
from each declaration's range: members of a declared group, the builtin
booleans (``"true"``/``"false"``) or a bounded integer range.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

from .errors import BadArgument, BadValue, UnknownAttribute, UniverseMismatch

Value = Union[str, int]

BOOL_DOMAIN: tuple[str, ...] = ("false", "true")


@dataclass(frozen=True)
class Group:
    """Named, ordered set of constant symbols."""

    name: str
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise BadArgument(f"group {self.name!r} has duplicate members")

    def __contains__(self, item: object) -> bool:
        return item in self.members


class ObsClass(Enum):
    """Whether an attribute can be seen (OBS) or only inferred (INF)."""

    OBS = "obs"
    INF = "inf"


@dataclass(frozen=True)
class AttrRef:
    """An attribute or task in a lifted schema or rule; each argument is a
    constant or a ``?var``."""

    symbol: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(self.args)})"


# A value range: "bool", the name of a group, or inclusive integer bounds.
ValueRange = Union[str, tuple[int, int]]


@dataclass(frozen=True)
class StateVariableDecl:
    """Declaration of one state-variable function, as the parser reads it.

    ``params`` holds ``(?var, group)`` pairs; the :class:`Universe` resolves
    ``value_range`` to the finite, ordered value domain of the symbol's
    grounded attributes.  ``obs`` is the symbol's observability class.
    """

    symbol: str
    params: tuple[tuple[str, str], ...]
    value_range: ValueRange
    obs: ObsClass

    def __post_init__(self) -> None:
        if isinstance(self.value_range, tuple) and self.value_range[0] > self.value_range[1]:
            raise BadValue(f"state variable {self.symbol!r} has an empty integer range")

    @property
    def param_groups(self) -> tuple[str, ...]:
        return tuple(group for _, group in self.params)

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def is_integer(self) -> bool:
        return isinstance(self.value_range, tuple)


@dataclass(frozen=True)
class GroundedAttribute:
    """A fully instantiated state-variable function application."""

    symbol: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(self.args)})"


class Universe:
    """All groups and declarations of a domain, with interned attributes."""

    def __init__(self, groups: Iterable[Group], decls: Iterable[StateVariableDecl]):
        self.groups: dict[str, Group] = {}
        for g in groups:
            if g.name in self.groups:
                raise BadArgument(f"group {g.name!r} declared twice")
            self.groups[g.name] = g
        seen: dict[str, str] = {}
        for g in self.groups.values():
            for member in g.members:
                if member in seen:
                    raise BadArgument(
                        f"constant {member!r} belongs to both groups "
                        f"{seen[member]!r} and {g.name!r}"
                    )
                seen[member] = g.name
        self.group_of_constant = seen

        self.decls: dict[str, StateVariableDecl] = {}
        for d in decls:
            if d.symbol in self.decls:
                raise BadArgument(f"state variable {d.symbol!r} declared twice")
            for gname in d.param_groups:
                if gname not in self.groups:
                    raise UnknownAttribute(
                        f"state variable {d.symbol!r} uses undeclared group {gname!r}"
                    )
            self.decls[d.symbol] = d
        domains = {symbol: self._resolve(d) for symbol, d in self.decls.items()}

        attrs: list[GroundedAttribute] = []
        for d in self.decls.values():
            member_lists = [self.groups[g].members for g in d.param_groups]
            for combo in itertools.product(*member_lists):
                attrs.append(GroundedAttribute(d.symbol, combo))
        self.attributes: tuple[GroundedAttribute, ...] = tuple(attrs)
        self.index: dict[GroundedAttribute, int] = {
            a: i for i, a in enumerate(self.attributes)
        }
        self.value_domains: tuple[tuple[Value, ...], ...] = tuple(
            domains[a.symbol] for a in self.attributes
        )
        # The one type of each attribute's values: int for an integer range,
        # str otherwise.  A bool or a float equal to a domain int is rejected.
        self.value_types: tuple[type, ...] = tuple(
            int if self.decls[a.symbol].is_integer else str for a in self.attributes
        )

    def _resolve(self, decl: StateVariableDecl) -> tuple[Value, ...]:
        """The value domain of a declaration's range."""
        if isinstance(decl.value_range, tuple):
            lo, hi = decl.value_range
            return tuple(range(lo, hi + 1))
        if decl.value_range == "bool":
            return BOOL_DOMAIN
        group = self.groups.get(decl.value_range)
        if group is None:
            raise UnknownAttribute(
                f"state variable {decl.symbol!r} uses undeclared value group "
                f"{decl.value_range!r}"
            )
        if not group.members:
            raise BadValue(f"state variable {decl.symbol!r} has an empty value domain")
        return group.members

    def attr(self, symbol: str, *args: str) -> GroundedAttribute:
        """Build a validated grounded attribute."""
        a = GroundedAttribute(symbol, tuple(args))
        self.check_attr(a)
        return a

    def check_attr(self, attr: GroundedAttribute) -> None:
        decl = self.decls.get(attr.symbol)
        if decl is None:
            raise UnknownAttribute(f"unknown state variable {attr.symbol!r}")
        if len(attr.args) != decl.arity:
            raise UnknownAttribute(
                f"{attr.symbol!r} takes {decl.arity} argument(s), got {len(attr.args)}"
            )
        for arg, gname in zip(attr.args, decl.param_groups):
            if arg not in self.groups[gname]:
                raise BadArgument(
                    f"{arg!r} is not a member of group {gname!r} "
                    f"(argument of {attr.symbol!r})"
                )

    def index_of(self, attr: GroundedAttribute) -> int:
        idx = self.index.get(attr)
        if idx is None:
            self.check_attr(attr)  # raises with a precise message
            raise UnknownAttribute(f"attribute {attr} not interned")
        return idx

    def value_domain(self, attr: GroundedAttribute) -> tuple[Value, ...]:
        return self.value_domains[self.index_of(attr)]

    def parse_value(self, attr: GroundedAttribute, token: str) -> Value:
        """Interpret a constant token against the attribute's value domain."""
        domain = self.value_domain(attr)
        if token in domain:
            return token
        try:
            as_int = int(token)
        except ValueError:
            as_int = None
        if as_int is not None and as_int in domain:
            return as_int
        raise BadValue(f"{token!r} is not in the value domain of {attr}")

    def check_value(self, index: int, value: Value) -> None:
        """Raise unless ``value`` is in the domain of the attribute at ``index``
        and of its type (see :attr:`value_types`)."""
        if type(value) is not self.value_types[index] or value not in self.value_domains[index]:
            raise BadValue(
                f"{value!r} is not in the value domain of {self.attributes[index]} "
                f"{self.value_domains[index]}"
            )

    def __len__(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True, eq=False)
class BeliefState:
    """Total assignment of values to every grounded attribute, for one agent."""

    owner: str
    universe: Universe
    values: tuple[Value, ...]

    @staticmethod
    def from_mapping(
        owner: str, universe: Universe, assignment: Mapping[GroundedAttribute, Value]
    ) -> "BeliefState":
        values: list[Value] = []
        missing: list[str] = []
        for index, attr in enumerate(universe.attributes):
            if attr not in assignment:
                missing.append(str(attr))
                continue
            universe.check_value(index, assignment[attr])
            values.append(assignment[attr])
        if missing:
            raise BadValue(
                "belief state is not total; missing initial values for: "
                + ", ".join(missing)
            )
        extra = [str(a) for a in assignment if a not in universe.index]
        if extra:
            raise UnknownAttribute("assignment covers undeclared attributes: " + ", ".join(extra))
        return BeliefState(owner, universe, tuple(values))

    def get(self, attr: GroundedAttribute) -> Value:
        return self.values[self.universe.index_of(attr)]

    def with_value(self, attr: GroundedAttribute, value: Value) -> "BeliefState":
        return self.with_values_at(((self.universe.index_of(attr), value),))

    def with_values_at(self, updates: Iterable[tuple[int, Value]]) -> "BeliefState":
        """Copy with each ``(index, value)`` written, every value checked
        against its domain and its type; the same object when no value
        changes.

        The copy is made at the first write that changes a value, so a run
        of writes that change nothing builds nothing.  Writes that set a
        value and then restore it also return the same object.
        """
        values = self.values
        domains = self.universe.value_domains
        types = self.universe.value_types
        changed: Optional[list[Value]] = None
        for index, value in updates:
            if type(value) is not types[index] or value not in domains[index]:
                self.universe.check_value(index, value)  # raises, naming the attribute
            if changed is None:
                if values[index] == value:
                    continue
                changed = list(values)
            changed[index] = value
        if changed is None:
            return self
        new = tuple(changed)
        if new == values:
            return self
        return BeliefState(self.owner, self.universe, new)

    def with_owner(self, owner: str) -> "BeliefState":
        return BeliefState(owner, self.universe, self.values)

    def as_dict(self) -> dict[GroundedAttribute, Value]:
        return dict(zip(self.universe.attributes, self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeliefState):
            return NotImplemented
        return self.values == other.values and self.universe is other.universe

    def __hash__(self) -> int:
        return hash(self.values)


def diverging_attributes(robot: BeliefState, human: BeliefState) -> tuple[int, ...]:
    """Indices of every attribute on which the two beliefs disagree, in
    index order."""
    if robot.universe is not human.universe:
        raise UniverseMismatch(
            "beliefs were built from different declaration universes"
        )
    return tuple(
        i for i, (rv, hv) in enumerate(zip(robot.values, human.values)) if rv != hv
    )


def follow_world(
    world: BeliefState, human: BeliefState, writes: Iterable[tuple[int, Value]]
) -> tuple[BeliefState, BeliefState]:
    """Both beliefs after each ``(index, value)`` is written into the world,
    in order; the human's belief takes the same value where it held the
    world's value just before the write, and keeps its own elsewhere."""
    for index, value in writes:
        if human.values[index] == world.values[index]:
            human = human.with_values_at(((index, value),))
        world = world.with_values_at(((index, value),))
    return world, human
