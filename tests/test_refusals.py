"""Library calls refuse bad arguments with an ``InputError`` and its exact
message, before any work is done."""

import pytest

from configcalc.calculus import (Form, LocalFunction, embed, perturbed,
                                 uniformity_criterion)
from configcalc.configspace import config_from_json
from configcalc.decomposition import TranslationAction
from configcalc.interactions import Interaction, exclusion
from configcalc.locales import (Euclidean, FreeGroupCayley, NNeighbor, box,
                                window)
from configcalc.serialize import InputError

LINE = Euclidean(1)
WIN = box(LINE, (0,), (4,))
EXCL = exclusion()
STEP = LocalFunction(((0,), (1,)), 2, 0, [0, 1, 2, 3])
SWAP = ((0, 0), (1, 0)), ((0, 1), (1, 1))  # exclusion's table

CASES = [
    (lambda: embed(STEP, ((0,), (2,))),
     "embed target lacks support sites [(1,)]"),
    (lambda: uniformity_criterion(STEP, LINE, ((0,), (1,)), (3,), 1),
     "(3,) is not in the probed region"),
    (lambda: perturbed(Form(2, 0, {}, 0), WIN, EXCL, ((0,), (1,)), {}, 1),
     "perturbation cell must be moved by the edge"),
    (lambda: TranslationAction(FreeGroupCayley(1), ((1,),)),
     "translation actions need a lattice locale"),
    (lambda: config_from_json(WIN, EXCL, 3), "bad configuration 3"),
    (lambda: config_from_json(WIN, EXCL, {"sites": [[0]], "states": []}),
     "configuration sites/states lengths differ"),
    (lambda: Interaction("t", (0, 1), 2, SWAP), "base index out of range"),
    (lambda: Interaction("t", (0, 1), 0, SWAP[:1]),
     "interaction table must be |S| x |S|"),
    (lambda: Interaction("t", (0, 1), 0, (((0, 0), (1, 2)), SWAP[1])),
     "interaction table entry out of range"),
    (lambda: LINE.ball((0, 0), 1), "ball center (0, 0) not in locale euclidean"),
    (lambda: Euclidean(0), "euclidean locale needs d >= 1"),
    (lambda: NNeighbor(1, 0), "n-neighbor locale needs d >= 1 and n >= 1"),
    (lambda: FreeGroupCayley(0), "free group locale needs rank >= 1"),
    (lambda: WIN.position((9,)), "vertex (9,) not in window"),
    (lambda: window(LINE, [(0, 0)]), "vertex (0, 0) is not in locale euclidean"),
    (lambda: window(LINE, []), "a window needs at least one vertex"),
]


@pytest.mark.parametrize("call,message", CASES, ids=[
    "embed", "uniformity-criterion", "perturbed", "action-locale",
    "config-payload", "config-lengths", "interaction-base",
    "interaction-table-shape", "interaction-table-entry", "ball-center",
    "euclidean-d", "n-neighbor-n", "free-group-rank", "window-position",
    "window-vertex", "window-empty"])
def test_library_input_errors_carry_their_message(call, message):
  with pytest.raises(InputError) as exc:
    call()
  assert type(exc.value) is InputError
  assert str(exc.value) == message
