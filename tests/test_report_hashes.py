"""Report bytes pinned by sha256.

The hashes were recorded with the dense Bareiss elimination that preceded
the sparse integer kernel in ``stratdual.rational``.  The reduced row
echelon form is unique, so every pivot, basis and report must stay
byte-identical whatever elimination order the kernel uses.

They were re-pinned once, for report schema v2, after checking that every
new report equals the v1 report once ``schema_version`` is 2 and the
properties fields ``stokes_trials``/``stokes_failures`` are replaced by
``stokes_identity: true``.
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
        (0, "7e8228fc3efdff885d5235884c7c64c4b015399a54ea214dee1b70a2bc378b65"),
    ("disk-cone-s1", "lower-middle", "reverse-lex"):
        (0, "3bdfd02dde6e5f5f1cbe9056c2da8249e03dc0d2177f46276610eb42dd807a45"),
    ("disk-cone-s1", "top", "lex"):
        (0, "424c2b37650adeff88182d6de0f2c2b4aa34589460586842ec076448b01a0eb6"),
    ("disk-cone-s1", "top", "reverse-lex"):
        (0, "4963c0b777a0ef08493a22c063d7a904f1da00a39b8c6dac8ba8ca77008eac2c"),
    ("disk-cone-s1", "upper-middle", "lex"):
        (0, "b6fc7bf4b717cfeb9ba0ccb28ae2abb85321be0f02f15be87e0d627b188e1721"),
    ("disk-cone-s1", "upper-middle", "reverse-lex"):
        (0, "e2babcf1084e1544a3081b4c69e6b1488287a7d99d8b3edc4b43d6187cb3e005"),
    ("disk-cone-s1", "zero", "lex"):
        (0, "4806f55214614252b9de3f88953cec527c7be434d3f2b45b2b08948b6a375158"),
    ("disk-cone-s1", "zero", "reverse-lex"):
        (0, "3d7c93d77b18a6332efdc5819d53c1b1063370616e115a0f3dc463bc101bc44f"),
    ("mobius-marked", "lower-middle", "lex"):
        (2, "d92ef4db171c6005ec91e219c116972fdac844b5567ba9ad35d780efbf8ba40e"),
    ("mobius-marked", "lower-middle", "reverse-lex"):
        (2, "47c03febffc9a5cf4c103a52ba97da8870aca78b6b300b94525a362fb5ae177b"),
    ("mobius-marked", "top", "lex"):
        (2, "c608f327d682437fecb8fe8ae0aa954787e4c40e8c961e9bea37a8a22d7ed586"),
    ("mobius-marked", "top", "reverse-lex"):
        (2, "22080f1eaee8c57beaa4a35e85efa4ad66e3fb68a1536e04efc49516912422f6"),
    ("mobius-marked", "upper-middle", "lex"):
        (2, "d055ef3f64fbcd719c73267d774baad841664ec986a73de2bd25738ce7ac1992"),
    ("mobius-marked", "upper-middle", "reverse-lex"):
        (2, "3ca2cd731a99fb3648c499e50b1436fe3ce3e056a55f321618a90626637caeb2"),
    ("mobius-marked", "zero", "lex"):
        (2, "0909ff2bc520d8253771ce711632b74d6042a179187fb0d04fdc6bc0416b66ff"),
    ("mobius-marked", "zero", "reverse-lex"):
        (2, "5a691da8e0dff28a1951b750a68d81ecfd9660e86f5abd5915bd35f010570999"),
    ("octahedron-marked", "lower-middle", "lex"):
        (0, "5dbd719bf21d6df5b90307812f728d2206c6c488eda06528ec48c9b42e8e1c18"),
    ("octahedron-marked", "lower-middle", "reverse-lex"):
        (0, "92a2c814abce909c89843901b92474f4d9f9a86354177b82350fe68ea6641664"),
    ("octahedron-marked", "top", "lex"):
        (0, "2f7fd48833950439bbb4854d6df31d75e62e5e1c478499f812761f7fa77a1dde"),
    ("octahedron-marked", "top", "reverse-lex"):
        (0, "6811724153e557a39f794ec0bd3facb35f5352f3b9424a33a68b3461664ce15d"),
    ("octahedron-marked", "upper-middle", "lex"):
        (0, "4628290ed743ca9303fc8ee26a153c4c05fa4593ea622825dfc86fa571988eec"),
    ("octahedron-marked", "upper-middle", "reverse-lex"):
        (0, "ac3b748a08036c551f1198a2895bd26a37ea3c6966198e20272dcc432f989be0"),
    ("octahedron-marked", "zero", "lex"):
        (0, "1effd2ea3a94c8c8121b1521803a7d521bbecfcb39a919f1f24eb1e0629697df"),
    ("octahedron-marked", "zero", "reverse-lex"):
        (0, "c3fbbdb1b471da70d07647c1cbe7dc476776e08f82d282584899f2e75acd7f27"),
    ("x2-cone-torus", "lower-middle", "lex"):
        (0, "30bc5df8753d2376175b439308b663c53d6d5bd18db762ba0480cf800089ec7b"),
    ("x2-cone-torus", "lower-middle", "reverse-lex"):
        (0, "e2f23dcd33f59b5b09386532ef8b76dd605387c41a9fcb28c5ea78c6161c0abf"),
    ("x2-cone-torus", "top", "lex"):
        (0, "8667d14ccef9bebc23422f4e581aa00677c265b45f2530677fcb38ec6e75804d"),
    ("x2-cone-torus", "top", "reverse-lex"):
        (0, "2793431d3f656fbbf7ee4d9cc90acb712d974ede1600005c5b3a083192cb4fae"),
    ("x2-cone-torus", "upper-middle", "lex"):
        (0, "fd42aeb0abe738decdebfd559f8dce1ac55e645db8964149d254f02b3602bcfd"),
    ("x2-cone-torus", "upper-middle", "reverse-lex"):
        (0, "273c87a14e63c4c66ce18a1405faa4c8c25a1bc6053716fde45fcbab6072bf32"),
    ("x2-cone-torus", "zero", "lex"):
        (0, "7ff0dce26803ed643c32e7427bf97328c36661943d1e655a4a9f662035d9623e"),
    ("x2-cone-torus", "zero", "reverse-lex"):
        (0, "5d878876d5447c03b3f7dc3be780fb074b130b4200c9d5a1ee89e30ea9ad3c02"),
}

# example -> (exit status, sha256 of the JSON report), all checks, default config
ALL_CHECKS_DEFAULT = {
    "disk-cone-s1": (0, "21de0229a20c05cbc5baf72edf5c8a57f47a71a511004c4913ee5ecaf1ba2e7d"),
    "mobius-marked": (2, "661202c0d4c37c153dc673c647ae996ce89f8053d362eba92a537fea707e7387"),
    "octahedron-marked": (0, "0e60bb2ba01bf936845ae9a53754221c6d79ecd51f839e90347e90686df69cb3"),
    "x2-cone-torus": (0, "653d4cdf042b31dee9dad40088a6b8cdb91cd2efbd049599e346ff727a8955f6"),
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
