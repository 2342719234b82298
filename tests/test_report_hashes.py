"""Report bytes pinned by sha256.

The hashes were recorded with the dense Bareiss elimination that preceded
the sparse integer kernel in ``stratdual.rational``.  The reduced row
echelon form is unique, so every pivot, basis and report must stay
byte-identical whatever elimination order the kernel uses.
"""

import hashlib

import pytest

from stratdual.cli import render_report, run_verification
from stratdual.examples import decomposition_names
from stratdual.model import NAMED_PERVERSITIES

STRUCTURAL_CHECKS = ["model", "duality", "ladder", "lefschetz",
                     "truncated-duality", "oracle"]

# (example, perversity, strategy) -> (exit status, sha256 of the JSON report)
STRUCTURAL = {
    ("disk-cone-s1", "lower-middle", "lex"):
        (0, "636d0a9421010449bac01badbb5b67ddec6737780e623f6a719bd903128aa804"),
    ("disk-cone-s1", "lower-middle", "reverse-lex"):
        (0, "a2f60035a9c0e00f315dca691c3a4d58ae2c229921e62706e3023066382739b0"),
    ("disk-cone-s1", "top", "lex"):
        (0, "f19ece9302d518df2c3877286266f3c6c4e21f3c9d6c49f03300dd38806290fc"),
    ("disk-cone-s1", "top", "reverse-lex"):
        (0, "424d5e9a279dd934a55c8ce87fce692c1af49dd9d1df408ceaff64d9184b25df"),
    ("disk-cone-s1", "upper-middle", "lex"):
        (0, "f448c4ef6d50b1ba9bfd4e80a2151cbeca662ebaea00c7210ef2d6942f5eb1a2"),
    ("disk-cone-s1", "upper-middle", "reverse-lex"):
        (0, "7b48fc73b625ed96f6f6710ca1b85abeddc1c99d829f50a5d9c4b73817a5eddc"),
    ("disk-cone-s1", "zero", "lex"):
        (0, "ec1a075c62e1c683730f837cf0347f0c5fd3f200b56853fa2676a87843ddce5c"),
    ("disk-cone-s1", "zero", "reverse-lex"):
        (0, "db7c9c054cb22e4539367503cf30a51ccfb7e1e022dfdd7627e0814b3b10523b"),
    ("mobius-marked", "lower-middle", "lex"):
        (2, "964df895e0ef449ca5926f205e7dc14a0690eabb4136de53b90aa08b625524f9"),
    ("mobius-marked", "lower-middle", "reverse-lex"):
        (2, "b4bd5d8096a9dab97f475c3fffdee3711bf2353a0c6c4ef9461f8420856a2bac"),
    ("mobius-marked", "top", "lex"):
        (2, "da532953ce8c3c73cedd94c1365d76a08f73eeba48f8379a57d20a0e767b599d"),
    ("mobius-marked", "top", "reverse-lex"):
        (2, "111ed86e00a094693c1e0650b44a31e2c1b9068ca1f1d206400cd2a8878eeb8d"),
    ("mobius-marked", "upper-middle", "lex"):
        (2, "8720c9e5755526e82fa8f02aace3cb41f6fb9f0450f63084c4fed065f213d35c"),
    ("mobius-marked", "upper-middle", "reverse-lex"):
        (2, "8a68d343001dbc107cf99e94da23e9f9c53f07afb13983983465f65a592d6fb0"),
    ("mobius-marked", "zero", "lex"):
        (2, "09e49b4e515c1b4822cf2592af92694fa57f9ce5a9e0eaad219e9d44c26c7f7c"),
    ("mobius-marked", "zero", "reverse-lex"):
        (2, "26a6717b3b072a32afb8ff71c577e99e999341c79408d1b3355bbff0abf28df1"),
    ("octahedron-marked", "lower-middle", "lex"):
        (0, "ddf7a255d97a3002bc124dd6f7071fa7705d469ecaf2d0612be61a1ca00aebe8"),
    ("octahedron-marked", "lower-middle", "reverse-lex"):
        (0, "d4e2a62e09aaa89828a08238d9902bec5114f81a859810ce1aa14744e2bedfa5"),
    ("octahedron-marked", "top", "lex"):
        (0, "0f9c41178bd403495bc1785fd6f303f0abab99a94cb977dd385f19122ff3d8f2"),
    ("octahedron-marked", "top", "reverse-lex"):
        (0, "d39fe6554c640b85cb7fbea8110e22b1112f1cfa9219bd998267419be2d57d0c"),
    ("octahedron-marked", "upper-middle", "lex"):
        (0, "9204c39751cf5601cd7ae15bc6c71f00f89b3c3bcf1dbbae7d189d21e815f789"),
    ("octahedron-marked", "upper-middle", "reverse-lex"):
        (0, "8d3cb57633fc7589bf83863c99289c46525413158b872593fc8920fcacf0e188"),
    ("octahedron-marked", "zero", "lex"):
        (0, "dffc5c941e3d56db6fd8e28b889029f2a76bd98b482c737564fe33a91f45b2dd"),
    ("octahedron-marked", "zero", "reverse-lex"):
        (0, "29bdcd6fef05387c39a38fb78c9e5d84235712bd294a60469cc757da464f99bf"),
    ("x2-cone-torus", "lower-middle", "lex"):
        (0, "3d945ef73bbbec612c35b840a0cc3ad35b20e63c785ab93a0c5b2a111a00415b"),
    ("x2-cone-torus", "lower-middle", "reverse-lex"):
        (0, "55f98b119dc470c52b5c7e80b8a7b40e6c34b8880d717523cf2a9e2cf98abf6e"),
    ("x2-cone-torus", "top", "lex"):
        (0, "4ef35096cfc34846a2953c730bce80f1a45bb405e3135e446f527f58ce70430e"),
    ("x2-cone-torus", "top", "reverse-lex"):
        (0, "99c805cc0ab0dab796242c86bf6daa2ff5959f16ade5e21c84603ee1f1a0a3d5"),
    ("x2-cone-torus", "upper-middle", "lex"):
        (0, "1a8cede6d7e97c8c4719aab1d45041d0c9cad49e27f2a73adadcdeaccc24b866"),
    ("x2-cone-torus", "upper-middle", "reverse-lex"):
        (0, "455b31dfa0b37050dcd32ca87a0928fa20314960b4d2b46c158042dade9aaee1"),
    ("x2-cone-torus", "zero", "lex"):
        (0, "6f2d851d8004a4a0f2bb0be5421a3a4ebea85f0448949230e662dac71d3625d2"),
    ("x2-cone-torus", "zero", "reverse-lex"):
        (0, "e1d554b680411ffeefe61631b5b74732707a5eca60ac260f42517cb16c434b58"),
}

# example -> (exit status, sha256 of the JSON report), all checks, default config
ALL_CHECKS_DEFAULT = {
    "disk-cone-s1": (0, "2ace978fcf2b63446bd4f623c33c8e26f0d913f7b60df2223600b18305291186"),
    "mobius-marked": (2, "dc88c629cd5b11177a5765f8fafcf4ad05eb974a46a7cdd37b651ba672763b54"),
    "octahedron-marked": (0, "78a09726a3a8b6a742419f89a654ec34f450cdd36093887c11525c7a7c9ea0c2"),
    "x2-cone-torus": (0, "ddd3e1e72fd80495ead63f0e6e3aee8b9d3721e4540a7a61097a6315db844ee8"),
}


def _digest(report):
    return hashlib.sha256(render_report(report, "json").encode("utf-8")).hexdigest()


def test_pinned_runs_cover_every_example_and_named_perversity():
    assert {key[0] for key in STRUCTURAL} == set(decomposition_names())
    assert {key[1] for key in STRUCTURAL} == set(NAMED_PERVERSITIES)
    assert len(STRUCTURAL) == len(decomposition_names()) * len(NAMED_PERVERSITIES) * 2
    assert set(ALL_CHECKS_DEFAULT) == set(decomposition_names())


@pytest.mark.parametrize("name", decomposition_names())
def test_structural_report_bytes(name):
    for (example, perversity, strategy), expected in STRUCTURAL.items():
        if example != name:
            continue
        report, status = run_verification(example, perversity, strategy,
                                          STRUCTURAL_CHECKS)
        assert (status, _digest(report)) == expected, (perversity, strategy)


@pytest.mark.parametrize("name", decomposition_names())
def test_all_checks_report_bytes(name):
    report, status = run_verification(name)
    assert (status, _digest(report)) == ALL_CHECKS_DEFAULT[name]
