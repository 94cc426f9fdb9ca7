"""A fixed probe of how fast the host's CPU runs Python right now.

The CPU a run is pinned to does not run at one speed: on a shared
virtual machine the same pure-Python loop takes from 1× to 2× its best
time, in phases that last from seconds to minutes, and two runs of one
commit a few minutes apart can land in different phases.  So a run
times this probe on its own CPU between its slices of traffic, and
scales every timing it reports to the speed at which the probe takes
``NOMINAL_S`` (see ``run.py``).

The probe is interpreter-bound like the server: integer arithmetic,
object allocation with dict and list traffic, and the standard library's
pure-Python HTML tokenizer over a fixed document.  It never calls the
program under test, so a change to the program cannot move it.  Any
change to this file re-bases every normalized figure.
"""

from __future__ import annotations

from html.parser import HTMLParser
from time import perf_counter

#: Seconds one probe round takes at the reference speed: about the
#: median measured on the 2-vCPU 2.1 GHz Xeon VM the bounds were set
#: on.  Normalized figures read as if the host ran at that speed.
NOMINAL_S = 0.0065

_WORDS = ("chapter", "section", "para", "title", "note", "list", "item", "emph")
_DOCUMENT = "<r>" + "".join(
    f"<a x='{index}'><b>text {index}</b><c/></a>" for index in range(60)
) + "</r>"


class _Node:
    __slots__ = ("tag", "kids", "text")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.kids: list[_Node] = []
        self.text = ""


class _Counter(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.tags: dict[str, int] = {}

    def handle_starttag(self, tag, attrs) -> None:
        self.tags[tag] = self.tags.get(tag, 0) + 1


def _arithmetic() -> int:
    total = 0
    for step in range(20000):
        total += step * 3 ^ (step >> 2)
    return total


def _tree() -> dict[str, int]:
    stack = [_Node("root")]
    children: dict[str, int] = {}
    for step in range(3000):
        if step % 3 == 2 and len(stack) > 1:
            node = stack.pop()
            children[node.tag] = children.get(node.tag, 0) + len(node.kids)
        else:
            node = _Node(_WORDS[(step * 7) % 8])
            node.text = node.tag + str(step & 15)
            stack[-1].kids.append(node)
            stack.append(node)
    return children


def _markup() -> dict[str, int]:
    parser = _Counter()
    parser.feed(_DOCUMENT)
    parser.close()
    return parser.tags


def probe_seconds(rounds: int = 1) -> float:
    """Mean seconds of one probe round, over *rounds* rounds."""
    started = perf_counter()
    for _ in range(rounds):
        _arithmetic()
        _tree()
        _markup()
    return (perf_counter() - started) / rounds
