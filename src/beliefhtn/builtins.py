"""Built-in benchmark domains: pasta cooking and box preparation.

Both are shipped as domain-file text so they exercise the parser, and both
are reconstructions from prose descriptions: the operator preconditions and
the task-network shape are the package's own encoding choices.

Cooking: a stove and salt live in the kitchen, pasta starts in the kitchen
or the adjacent room.  The robot seasons the pot and turns the stove on;
the human fetches the pasta and pours it, which is possible only once salt
is in the pot and the stove is on.  Only ``SaltInPot`` is inferrable.

Box: three boxes must each be filled with two balls from a shared bucket,
stickered by the robot and sent by the human.  The bucket starts with five
balls, so after four fills one ball is left and the human makes a trip to
the storage room to refill it.  The ball count of a box is inferrable; the
sticker, the bucket and everything else is observable.
"""

from __future__ import annotations

from pathlib import Path

from .domfile import ProblemBundle, parse_bundle
from .errors import BadArgument, BeliefHtnError, UnknownDomain

BUILTIN_NAMES = ("cooking", "box")

COOKING_DOM = """\
beliefhtn-domain 1
domain cooking

group Places Kitchen Room
group Agents robot human
group StoveState off on
agents robot human

svar AgtAt (?a Agents) -> Places : obs
svar PastaLoc -> Places : obs
svar SaltInPot -> bool : inf
svar Stove -> StoveState : obs
svar HumanHasPasta -> bool : obs
svar PastaInPot -> bool : obs

place AgtAt(?a) value-of AgtAt(?a)
place PastaLoc value-of PastaLoc
place SaltInPot at Kitchen
place Stove at Kitchen
place HumanHasPasta value-of AgtAt(human)
place PastaInPot at Kitchen

operator add-salt for robot
  pre AgtAt(robot) = Kitchen
  pre SaltInPot = false
  eff SaltInPot = true
end

operator turn-on for robot
  pre AgtAt(robot) = Kitchen
  pre Stove = off
  eff Stove = on
end

operator move-to-pasta for human
  param ?from Places
  param ?to Places
  pre AgtAt(human) = ?from
  pre PastaLoc = ?to
  pre HumanHasPasta = false
  eff AgtAt(human) = ?to
end

operator move-to-kitchen for human
  pre AgtAt(human) = Room
  pre HumanHasPasta = true
  eff AgtAt(human) = Kitchen
end

operator grab-pasta for human
  param ?p Places
  pre AgtAt(human) = ?p
  pre PastaLoc = ?p
  pre HumanHasPasta = false
  eff HumanHasPasta = true
end

operator pour-pasta for human
  pre AgtAt(human) = Kitchen
  pre HumanHasPasta = true
  pre SaltInPot = true
  pre Stove = on
  eff PastaInPot = true
  eff HumanHasPasta = false
  eff PastaLoc = Kitchen
end

method m-make-pasta for both
  task MakePasta
  sub t1 AddSalt
  sub t2 TurnOn
  sub t3 GetPasta
  sub t4 PourPasta
  order t1 < t4
  order t2 < t4
  order t3 < t4
end

method m-season for both
  task AddSalt
  sub s1 add-salt
end

method m-season-done for both
  task AddSalt
end

method m-heat for both
  task TurnOn
  sub s1 turn-on
end

method m-heat-done for both
  task TurnOn
end

method m-get-pasta for both
  task GetPasta
  sub g1 AcquirePasta
  sub g2 GoKitchen
  order g1 < g2
end

method m-grab-here for both
  task AcquirePasta
  var ?p Places
  sub a1 grab-pasta(?p)
end

method m-fetch for both
  task AcquirePasta
  var ?from Places
  var ?to Places
  sub a1 move-to-pasta(?from, ?to)
  sub a2 grab-pasta(?to)
  order a1 < a2
end

method m-have-already for both
  task AcquirePasta
end

method m-walk-back for both
  task GoKitchen
  sub k1 move-to-kitchen
end

method m-stay for both
  task GoKitchen
end

method m-pour for both
  task PourPasta
  sub p1 pour-pasta
end

root t0 MakePasta
init AgtAt(robot) = Kitchen
init AgtAt(human) = Kitchen
init PastaLoc = Room
init SaltInPot = false
init Stove = off
init HumanHasPasta = false
init PastaInPot = false
start robot
"""

BOX_CAPACITY = 2  # balls per box
BOX_BUCKET = 5  # balls in a full bucket
BOX_COUNT = 3


def box_dom(boxes: int = BOX_COUNT) -> str:
    """Box-domain text for ``boxes`` boxes of :data:`BOX_CAPACITY` balls
    and a bucket of :data:`BOX_BUCKET` balls.

    The fill schedule in the root method is derived from these: the first
    ``BOX_BUCKET - 1`` fills precede the refill trip, the remainder follow
    it, so the bucket bottoms out at exactly one ball before the trip and
    never runs dry.  Raises :class:`BadArgument` for fewer than one box.
    """
    if boxes < 1:
        raise BadArgument(f"box_dom needs at least one box, not {boxes}")
    names = [f"box{i + 1}" for i in range(boxes)]
    lines = [
        "beliefhtn-domain 1",
        "domain box",
        "",
        "group Places Workshop Storage",
        "group Agents robot human",
        "group Boxes " + " ".join(names),
        "agents robot human",
        "",
        f"svar AgtAt (?a Agents) -> Places : obs",
        f"svar BallsInBox (?b Boxes) -> int 0 {BOX_CAPACITY} : inf",
        "svar Sticker (?b Boxes) -> bool : obs",
        "svar Sent (?b Boxes) -> bool : obs",
        f"svar BucketBalls -> int 0 {BOX_BUCKET} : obs",
        "svar HumanHasBalls -> bool : obs",
        "",
        "place AgtAt(?a) value-of AgtAt(?a)",
        "place BallsInBox(?b) at Workshop",
        "place Sticker(?b) at Workshop",
        "place Sent(?b) at Workshop",
        "place BucketBalls at Workshop",
        "place HumanHasBalls value-of AgtAt(human)",
        "",
        "operator fill-r for robot",
        "  param ?b Boxes",
        "  pre AgtAt(robot) = Workshop",
        "  eff BallsInBox(?b) += 1",
        "  eff BucketBalls -= 1",
        "end",
        "",
        "operator fill-h for human",
        "  param ?b Boxes",
        "  pre AgtAt(human) = Workshop",
        "  eff BallsInBox(?b) += 1",
        "  eff BucketBalls -= 1",
        "end",
        "",
        "operator paste for robot",
        "  param ?b Boxes",
        "  pre AgtAt(robot) = Workshop",
        "  pre Sent(?b) = false",
        "  eff Sticker(?b) = true",
        "end",
        "",
        "operator send for human",
        "  param ?b Boxes",
        "  pre AgtAt(human) = Workshop",
        f"  pre BallsInBox(?b) = {BOX_CAPACITY}",
        "  pre Sticker(?b) = true",
        "  pre Sent(?b) = false",
        "  eff Sent(?b) = true",
        "end",
        "",
        "operator move-to-storage for human",
        "  pre AgtAt(human) = Workshop",
        "  eff AgtAt(human) = Storage",
        "end",
        "",
        "operator move-to-workshop for human",
        "  pre AgtAt(human) = Storage",
        "  eff AgtAt(human) = Workshop",
        "end",
        "",
        "operator grab-balls for human",
        "  pre AgtAt(human) = Storage",
        "  pre HumanHasBalls = false",
        "  eff HumanHasBalls = true",
        "end",
        "",
        "operator refill for human",
        "  pre AgtAt(human) = Workshop",
        "  pre HumanHasBalls = true",
        "  eff HumanHasBalls = false",
        f"  eff BucketBalls = {BOX_BUCKET}",
        "end",
        "",
        "method m-prepare-all for both",
        "  task PrepareBoxes",
    ]
    # Fill tasks: BOX_CAPACITY fills per box, scheduled around one refill trip.
    # The first round of fills (one per box, bucket permitting) precedes the
    # trip; every later round follows the refill, so each box's fill pair
    # straddles the trip and the bucket never runs dry.
    fill_labels: list[tuple[str, str]] = []
    for k in range(BOX_CAPACITY):
        for i, name in enumerate(names):
            fill_labels.append((f"f{i + 1}{chr(ord('a') + k)}", name))
    early = fill_labels[: min(boxes, BOX_BUCKET - 1)]
    late = fill_labels[min(boxes, BOX_BUCKET - 1) :]
    for label, name in fill_labels:
        lines.append(f"  sub {label} FillBox({name})")
    lines.append("  sub rt RefillTrip")
    for i, name in enumerate(names):
        lines.append(f"  sub p{i + 1} paste({name})")
    for i, name in enumerate(names):
        lines.append(f"  sub s{i + 1} send({name})")
    # Each box is stickered before being filled; sends carry no ordering:
    # whether a box can be sent is gated purely by the sender's belief about
    # its readiness, which is the point.
    for i, name in enumerate(names):
        for label, owner in fill_labels:
            if owner == name:
                lines.append(f"  order p{i + 1} < {label}")
    for label, _ in early:
        lines.append(f"  order {label} < rt")
    for label, _ in late:
        lines.append(f"  order rt < {label}")
    lines += [
        "end",
        "",
        "method m-fill-by-human for both",
        "  task FillBox (?b Boxes)",
        "  sub x1 fill-h(?b)",
        "end",
        "",
        "method m-fill-by-robot for both",
        "  task FillBox (?b Boxes)",
        "  sub x1 fill-r(?b)",
        "end",
        "",
        "method m-refill-trip for both",
        "  task RefillTrip",
        "  sub r1 move-to-storage",
        "  sub r2 grab-balls",
        "  sub r3 move-to-workshop",
        "  sub r4 refill",
        "  order r1 < r2",
        "  order r2 < r3",
        "  order r3 < r4",
        "end",
        "",
        "root t0 PrepareBoxes",
        "init AgtAt(robot) = Workshop",
        "init AgtAt(human) = Workshop",
    ]
    for name in names:
        lines.append(f"init BallsInBox({name}) = 0")
    for name in names:
        lines.append(f"init Sticker({name}) = false")
    for name in names:
        lines.append(f"init Sent({name}) = false")
    lines += [
        f"init BucketBalls = {BOX_BUCKET}",
        "init HumanHasBalls = false",
        "start robot",
        "",
    ]
    return "\n".join(lines)


BOX_DOM = box_dom()


def _builtin_text(name: str) -> str:
    if name == "cooking":
        return COOKING_DOM
    if name == "box":
        return BOX_DOM
    raise UnknownDomain(f"no builtin domain {name!r}; choose from {BUILTIN_NAMES}")


def builtin_bundle(name: str) -> ProblemBundle:
    return parse_bundle(_builtin_text(name))


def load_bundle(name_or_path: str) -> ProblemBundle:
    """A built-in domain by name, or a domain file by path."""
    if name_or_path in BUILTIN_NAMES:
        return builtin_bundle(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise BeliefHtnError(
            f"{name_or_path!r} is neither a builtin domain {BUILTIN_NAMES} "
            "nor an existing file"
        )
    return parse_bundle(path.read_text(encoding="utf-8"))
