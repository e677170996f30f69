"""Seeded linkfold/1 documents for the benchmark workloads.

Every document is built in closed form from a ``random.Random`` stream:
coordinates, lengths, overlaps and layer signs come from integer and
``Fraction`` arithmetic in this file, never from calls into linkfold,
so generating inputs costs the same however fast the program gets.

Generators return the document text together with the facts the output
checks need: family, size and the expected answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

# primitive Pythagorean triples: rotations by these keep coordinates rational
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (12, 35, 37))


def fmt(value) -> str:
    """Exact rational as the document format writes it: 'p' or 'p/q'."""
    q = F(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def sign(x) -> int:
    return (x > 0) - (x < 0)


class Motion:
    """Rotation by a Pythagorean direction followed by a rational shift."""

    def __init__(self, rng: random.Random) -> None:
        a, b, c = rng.choice(TRIPLES)
        if rng.random() < 0.5:
            a, b = b, a
        self.cos = F(rng.choice((1, -1)) * a, c)
        self.sin = F(rng.choice((1, -1)) * b, c)
        self.dx = F(rng.randint(-60, 60), rng.randint(1, 7))
        self.dy = F(rng.randint(-60, 60), rng.randint(1, 7))

    def __call__(self, x, y) -> tuple[F, F]:
        x, y = F(x), F(y)
        return (self.cos * x - self.sin * y + self.dx, self.sin * x + self.cos * y + self.dy)

    def line_orient(self, s: int) -> int:
        """Sign of an x-axis direction s against the image line's canonical
        direction, which points right (cos is never 0 here)."""
        return s * sign(self.cos)


@dataclass
class Doc:
    text: str
    expect: dict = field(default_factory=dict)
    path: str = ""  # where set-up wrote the text


class Draft:
    """Accumulates one document's vertices, edges and annotations."""

    def __init__(self, motion: Motion | None) -> None:
        self.motion = motion
        self.vertices: list[dict] = []
        self.edges: list[dict] = []
        self.annotations: list[dict] = []
        self.adornments: list[dict] = []

    def vertex(self, vid: str, x=None, y=None) -> str:
        node = {"id": vid}
        if x is not None:
            px, py = self.motion(x, y)
            node["x"], node["y"] = fmt(px), fmt(py)
        self.vertices.append(node)
        return vid

    def edge(self, eid: str, tail: str, head: str, length) -> str:
        self.edges.append({"id": eid, "tail": tail, "head": head, "length": fmt(length)})
        return eid

    def text(self) -> str:
        root: dict = {"format": "linkfold/1", "epsilon": "0"}
        if self.vertices:
            root["vertices"] = self.vertices
            root["edges"] = self.edges
        if self.annotations:
            root["annotations"] = self.annotations
        if self.adornments:
            root["adornments"] = self.adornments
        return json.dumps(root, indent=1) + "\n"


# ---------------------------------------------------------------- flat strips


def zigzag_xs(rng: random.Random, n: int) -> list[int]:
    """Stations of an n-bar strip folded back and forth, drifting right."""
    xs = [0]
    last = 0
    for k in range(n):
        if k % 2 == 0:
            last = rng.randint(2, 4)
            xs.append(xs[-1] + last)
        else:
            xs.append(xs[-1] - rng.randint(1, last - 1))
    return xs


def spiral_xs(rng: random.Random, n: int) -> list[int]:
    """Stations of an n-bar strip folding inward, each bar inside the last."""
    lengths = sorted(rng.sample(range(1, 3 * n + 1), n), reverse=True)
    xs = [0]
    for k, length in enumerate(lengths):
        xs.append(xs[-1] + (length if k % 2 == 0 else -length))
    return xs


def layered_strip(
    b: Draft, xs: list[int], scale: F, hinged: bool, y=0, prefix: str = ""
) -> list[str]:
    """Place a flat strip on the line y and layer bar k at height k.

    Overlapping bar pairs get ``layer`` entries in both orders, with the
    sign seen from each bar's own direction along the corridor. Hinged
    strips split every fold vertex into two co-located vertices joined by
    a zero-length bar. Returns the positive bar ids, bottom layer first.
    """
    n = len(xs) - 1
    xs = [scale * x for x in xs]
    prev = b.vertex(f"{prefix}v0", xs[0], y)
    count = 1
    bars = []
    for k in range(n):
        head = b.vertex(f"{prefix}v{count}", xs[k + 1], y)
        count += 1
        bars.append(b.edge(f"{prefix}e{k + 1}", prev, head, abs(xs[k + 1] - xs[k])))
        prev = head
        if hinged and k < n - 1:
            prev = b.vertex(f"{prefix}v{count}", xs[k + 1], y)
            count += 1
            b.edge(f"{prefix}h{k + 1}", head, prev, 0)
    spans = [(min(xs[k], xs[k + 1]), max(xs[k], xs[k + 1])) for k in range(n)]
    dirs = [b.motion.line_orient(sign(xs[k + 1] - xs[k])) for k in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if min(spans[i][1], spans[j][1]) - max(spans[i][0], spans[j][0]) <= 0:
                continue
            layer = dirs[i] * sign(j - i)
            b.annotations.append(
                {"first": bars[i], "second": bars[j], "layer": "+1" if layer > 0 else "-1"}
            )
    return bars


def staircase(b: Draft, rng: random.Random, edges: int, hinged: bool, prefix="", y0=0) -> None:
    """A monotone staircase path that touches nothing.

    Positive bars step right and up in turn. Hinged staircases make every
    second edge a zero-length bar between two co-located vertices.
    """
    x, y = 0, y0
    prev = b.vertex(f"{prefix}v0", x, y)
    steps = 0
    for k in range(edges):
        if hinged and k % 2 == 1:
            head = b.vertex(f"{prefix}v{k + 1}", x, y)
            b.edge(f"{prefix}h{k + 1}", prev, head, 0)
        else:
            length = rng.randint(1, 4)
            if steps % 2 == 0:
                x += length
            else:
                y += length
            steps += 1
            head = b.vertex(f"{prefix}v{k + 1}", x, y)
            b.edge(f"{prefix}e{k + 1}", prev, head, length)
        prev = head


def strip_xs(rng: random.Random, family: str, n: int) -> list[int]:
    return spiral_xs(rng, n) if family == "spiral" else zigzag_xs(rng, n)


def strip_scale(rng: random.Random) -> F:
    return F(rng.randint(1, 3), rng.randint(1, 2))


# ------------------------------------------------------------------ workloads

FOLD_FAMILIES = ("zigzag", "spiral", "hinged")


def fold_doc(rng: random.Random, family: str, n: int) -> Doc:
    """Layered flat strip of n positive bars; the job validates, lists
    corridors and perturbs it."""
    b = Draft(Motion(rng))
    bars = layered_strip(b, strip_xs(rng, family, n), strip_scale(rng), family == "hinged")
    return Doc(b.text(), {"order": bars, "edges": len(b.edges)})


EMIT_FAMILIES = ("staircase", "hinged-staircase", "touching-flat")


def emit_doc(rng: random.Random, family: str, edges: int) -> Doc:
    """Staircases (nontouching, exit 0) or folded flats (touching, exit 2)."""
    b = Draft(Motion(rng))
    if family == "touching-flat":
        layered_strip(b, zigzag_xs(rng, edges), strip_scale(rng), False)
        b.annotations = []  # emit-sa ignores layers; keep the document lean
    else:
        staircase(b, rng, edges, family == "hinged-staircase")
    code = 2 if family == "touching-flat" else 0
    return Doc(b.text(), {"code": code, "edges": edges, "vertices": len(b.vertices)})


CHAIN_FAMILIES = ("closed", "closed", "adorned-slender", "adorned-mixed")


def closed_pair(rng: random.Random, k: int) -> tuple[str, str, list[F], list[F]]:
    """Two bare closed chains on one walk, rest lengths within 10%."""
    lens_a = [F(rng.randint(4, 12), rng.choice((1, 2, 3))) for _ in range(k)]
    lens_b = [length * (1 + F(rng.randint(-10, 10), 100)) for length in lens_a]
    texts = []
    for lens in (lens_a, lens_b):
        b = Draft(None)
        for i in range(k):
            b.vertex(f"v{i}")
        for i, length in enumerate(lens):
            b.edge(f"e{i}", f"v{i}", f"v{(i + 1) % k}", length)
        texts.append(b.text())
    return texts[0], texts[1], lens_a, lens_b


# apex positions (fraction u of the base, height r of the base length);
# slender exactly when the apex lies inside the Thales circle of the base
SLENDER_APEX = ((F(1, 4), F(1, 5)), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 4)), (F(2, 3), F(1, 8)), (F(3, 5), F(2, 5)))
BLUNT_APEX = ((F(1, 3), F(3, 4)), (F(1, 2), F(1)), (F(2, 3), F(3, 2)))


def adorned_chain(rng: random.Random, m: int, mixed: bool) -> tuple[str, list[bool]]:
    """m triangles on consecutive bases along a line; mixed chains carry
    one triangle whose apex angle is acute, which is not strictly slender."""
    motion = Motion(rng)
    blunt = rng.randrange(m) if mixed else -1
    b = Draft(motion)
    x = F(0)
    verdicts = []
    for k in range(m):
        base = F(rng.choice((2, 3, 4, 6)))
        u, r = rng.choice(BLUNT_APEX if k == blunt else SLENDER_APEX)
        pts = [motion(x, 0), motion(x + base, 0), motion(x + u * base, r * base)]
        b.adornments.append({"boundary": [[fmt(px), fmt(py)] for px, py in pts], "base": [0, 1]})
        verdicts.append(k != blunt)
        x += base
    return b.text(), verdicts


TRIAGE_KINDS = (
    "validate",
    "annotate",
    "corridors",
    "render",
    "bad-crossing",
    "bad-magnitude",
    "bad-cycle",
    "bad-interleave",
)
# the check each malformed family is built to fail first
TRIAGE_FAILS = {
    "bad-crossing": "macroscopic",
    "bad-magnitude": "well-annotated",
    "bad-cycle": "well-ordered",
    "bad-interleave": "microscopic",
}


def _stacked(b: Draft, prefix: str, length: int, count: int, shared_tails: int) -> list[str]:
    """count bars over the same span; tails cycle over shared_tails vertices."""
    tails = [b.vertex(f"{prefix}t{i}", 0, 0) for i in range(shared_tails)]
    bars = []
    for i in range(count):
        head = b.vertex(f"{prefix}h{i}", length, 0)
        bars.append(b.edge(f"{prefix}E{i + 1}", tails[i % shared_tails], head, length))
    return bars


def _layer(b: Draft, first: str, second: str, up: bool) -> None:
    # all stacked bars run along +x, so the sign is the motion's orientation
    s = b.motion.line_orient(1) * (1 if up else -1)
    b.annotations.append({"first": first, "second": second, "layer": "+1" if s > 0 else "-1"})


def triage_doc(rng: random.Random, kind: str, n: int) -> Doc:
    """Small valid strips for the four commands, or a malformed document
    built to fail one validator check, padded to n bars by a staircase."""
    b = Draft(Motion(rng))
    expect: dict = {"kind": kind}
    if kind in TRIAGE_FAILS:
        expect["fails"] = TRIAGE_FAILS[kind]
        if kind == "bad-crossing":
            b.edge("c1", b.vertex("a0", 0, 0), b.vertex("a1", 2, 0), 2)
            b.edge("c2", b.vertex("b0", 1, -1), b.vertex("b1", 1, 1), 2)
            used = 2
        elif kind == "bad-magnitude":
            bars = layered_strip(b, [0, 3, 1], F(1), False, prefix="g")
            # the overlap of the two bars is 2; claim 4 with the layer's sign
            entry = b.annotations[0]
            entry.pop("layer")
            entry["value"] = "4" if b.motion.line_orient(1) > 0 else "-4"
            used = len(bars)
        elif kind == "bad-cycle":
            bars = _stacked(b, "g", 2, 3, 3)
            for i in range(3):
                j = (i + 1) % 3
                _layer(b, bars[i], bars[j], True)
                _layer(b, bars[j], bars[i], False)
            used = 3
        else:
            bars = _stacked(b, "g", 2, 4, 2)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        _layer(b, bars[i], bars[j], j > i)
            used = 4
        if n > used:
            staircase(b, rng, n - used, False, prefix="s", y0=40)
    else:
        family = rng.choice(("zigzag", "spiral"))
        expect["order"] = layered_strip(b, strip_xs(rng, family, n), strip_scale(rng), False)
        expect["delta_bound"] = F(1, 2 * n)
    expect["edges"] = [e["id"] for e in b.edges]
    expect["vertices"] = len(b.vertices)
    return Doc(b.text(), expect)
