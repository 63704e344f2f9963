"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed: the same seed
yields the same problems, requests and splits, and the program under
test only ever sees the generated values.
"""

from __future__ import annotations

import random

#: Characters the MICRO tokenizer knows that are not unit symbols, so a
#: generated place name never grounds as a unit and never maps to
#: ``<unk>`` (distinct names stay distinct token sequences).
_PLACE_CHARS = "商店果园农场仓库城站塔江峰海阳青临乌扎敏州王明工市路池菜田麦苗圃机电风实验清金气"
_THINGS = ["橙子", "苹果", "书", "箱子", "零件", "椅子", "包裹", "砖块",
           "鸡蛋", "玫瑰", "鱼", "矿石"]
_VERBS = ["卖出了", "运走了", "用掉了", "借出了", "送出了", "搬走了"]


class SolveProblems:
    """An endless seeded stream of ``/solve`` problems, none sharing a
    structure with another.

    Problems alternate between two families in seeded order -- every
    pair holds one of each:

    - ``short``: ``<place>有 <n> 个<thing>`` (about 21 generated tokens);
    - ``long``: a four-number stock problem (about 50 generated tokens).

    A structure is the text with its numbers slotted out, which is what
    the completion memo and the in-flight dedupe key on; the stream
    never repeats one, so neither can help.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"solve:{seed}")
        self._seen: set[tuple] = set()
        self._pending: list[tuple[str, str]] = []

    def _place(self) -> str:
        return "".join(self._rng.choice(_PLACE_CHARS)
                       for _ in range(self._rng.choice((2, 3))))

    def _one(self, family: str) -> tuple[str, str]:
        rng = self._rng
        while True:
            place, thing = self._place(), rng.choice(_THINGS)
            verb = rng.choice(_VERBS) if family == "long" else ""
            key = (family, place, thing, verb)
            if key not in self._seen:
                self._seen.add(key)
                break
        if family == "short":
            return family, f"{place}有 {rng.randint(3, 999)} 个{thing}"
        return family, (
            f"{place}第{rng.randint(1, 30)}天有 {rng.randint(20, 999)} 个"
            f"{thing}，{verb} {rng.randint(2, 19)} 个，又进货 "
            f"{rng.randint(1, 19)} 个，现在有几个{thing}？")

    def take(self, count: int) -> list[tuple[str, str]]:
        """The next ``count`` ``(family, text)`` problems of the stream."""
        out: list[tuple[str, str]] = []
        while len(out) < count:
            if not self._pending:
                pair = ["short", "long"]
                self._rng.shuffle(pair)
                self._pending = [self._one(family) for family in pair]
            out.append(self._pending.pop(0))
        return out


#: Unit mentions per dimension, as a user would type them; every one
#: links to a KB unit, and any two of a group convert and compare.
UNIT_GROUPS: dict[str, list[str]] = {
    "length": ["km", "kilometre", "m", "meters", "mi", "ft", "cm", "mm"],
    "mass": ["kg", "kilograms", "g", "lb", "tons", "mg"],
    "time": ["hours", "hrs", "min", "secs", "ms", "day"],
    "volume": ["litres", "L", "mL", "m3"],
    "velocity": ["km/h", "m/s", "mph"],
}

_GROUND_TEMPLATES = [
    "{p}的仓库里有 {a} 吨化肥，先运走了 {b} 千克",
    "{p}的水箱容积是 {a} 升，每分钟注满 {b} 升",
    "{p}修路 {a} 千米，平均每天修 {b} 米",
    "{p}的汽车以 {a} 千米每小时的速度行驶了 {b} 小时",
    "{p}的麦田共 {a} 公顷，每公顷产小麦 {b} 千克",
]

#: Problem structures the ``/solve`` share of the HTTP mix repeats; the
#: numbers vary per request but slot to the same prompt, so after the
#: warm-up every one of them is a completion-memo hit.
SOLVE_TEMPLATES = 6

#: Endpoints of the HTTP mix, in round-robin order.
HTTP_ENDPOINTS = ("/ground", "/extract", "/convert", "/compare",
                  "/dimension", "/solve")


def solve_template(index: int, rng: random.Random) -> str:
    thing = _THINGS[index % len(_THINGS)]
    return (f"{_PLACE_CHARS[index]}{_PLACE_CHARS[-1 - index]}有 "
            f"{rng.randint(20, 999)} 个{thing}，{_VERBS[index % 6]} "
            f"{rng.randint(2, 19)} 个，又进货 {rng.randint(1, 19)} 个，"
            f"现在有几个{thing}？")


class HttpRequests:
    """One connection's seeded stream of ``(path, body)`` requests.

    Endpoints round-robin in :data:`HTTP_ENDPOINTS` order; each
    connection starts at a different one, so two connections do not
    send the same endpoint in lockstep.
    """

    def __init__(self, seed: int, connection: int):
        self._rng = random.Random(f"http:{seed}:{connection}")
        self._turn = connection * 3

    def _unit_pair(self) -> tuple[str, str]:
        group = self._rng.choice(sorted(UNIT_GROUPS))
        return tuple(self._rng.sample(UNIT_GROUPS[group], 2))

    def _body(self, path: str) -> dict:
        rng = self._rng
        if path in ("/ground", "/extract"):
            place = "".join(rng.choice(_PLACE_CHARS) for _ in range(2))
            return {"text": rng.choice(_GROUND_TEMPLATES).format(
                p=place, a=rng.randint(2, 900), b=rng.randint(2, 900))}
        if path == "/convert":
            source, target = self._unit_pair()
            return {"value": round(rng.uniform(0.5, 500.0), 3),
                    "source": source, "target": target}
        if path == "/compare":
            first, second = self._unit_pair()
            return {"quantities": [
                {"value": round(rng.uniform(0.5, 500.0), 3), "unit": first},
                {"value": round(rng.uniform(0.5, 500.0), 3), "unit": second},
            ]}
        if path == "/dimension":
            if rng.random() < 0.5:
                return {"mention": rng.choice(
                    [m for group in UNIT_GROUPS.values() for m in group])}
            return {"mentions": [rng.choice(UNIT_GROUPS["length"]),
                                 rng.choice(UNIT_GROUPS["time"])],
                    "ops": ["/"]}
        return {"text": solve_template(rng.randrange(SOLVE_TEMPLATES), rng)}

    def next(self) -> tuple[str, dict]:
        path = HTTP_ENDPOINTS[self._turn % len(HTTP_ENDPOINTS)]
        self._turn += 1
        return path, self._body(path)
