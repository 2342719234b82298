"""The library builders take every object they read as an argument, and
``Workspace`` alone wires them.

No builder keeps a second path that builds its inputs itself when they are
not given, so none of their parameters defaults to None.  The one exception
is ``truncated_duality``'s ``lam``, the link's fundamental cycle, which it
takes to be the oriented top chain when not given.  Pairing forms carry
their pair and mu, so a pairing call accepts them only with the models'
own pair.
"""

import inspect

import pytest

from stratdual import examples
from stratdual.cone import chain_truncate, intersection_space_cone
from stratdual.cotruncation import quotient_by_cotruncation, truncated_duality
from stratdual.duality import (
    ladder_check,
    lefschetz_pairing,
    main_pairing,
    well_definedness_identity,
)
from stratdual.model import build_model
from stratdual.workspace import Workspace

BUILDERS = (build_model, quotient_by_cotruncation, chain_truncate, intersection_space_cone,
            truncated_duality, lefschetz_pairing, main_pairing, well_definedness_identity,
            ladder_check)


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
def test_no_parameter_of_a_builder_defaults_to_none(builder):
    defaulted = [name for name, parameter in inspect.signature(builder).parameters.items()
                 if parameter.default is None and (builder, name) != (truncated_duality, "lam")]
    assert defaulted == []


def test_pairing_forms_of_another_pair_are_rejected():
    # Two workspaces of one document hold equal but distinct pairs.
    document = examples.get_document("x2-cone-torus")
    ws, other = Workspace(document), Workspace(document)
    mp, mq, forms = ws.model(2, "lex"), ws.model(1, "lex"), other.forms()
    calls = (lambda: main_pairing(mp, mq, forms),
             lambda: well_definedness_identity(mp, mq, forms),
             lambda: ladder_check(mp, mq, 1, forms))
    for call in calls:
        with pytest.raises(ValueError, match="^pairing forms of another pair or fundamental chain$"):
            call()
    forms = ws.forms()
    assert main_pairing(mp, mq, forms).passed
    assert well_definedness_identity(mp, mq, forms)
    assert ladder_check(mp, mq, 1, forms).passed
    assert lefschetz_pairing(forms).passed
