"""Byte-identity of the command line.

Each case pins the exit code and the sha256 of stdout of one cheap
command.  Identical invocations must print identical bytes, and a
change to the library that alters any of them must update the digest
here on purpose.  Together the cases take a few seconds.
"""

import hashlib
import json

import pytest

from planelift.cli import main

# The abscissa file of the README's `lift grid3x3` example; the
# placeholder XS_FILE in a command line is replaced by its path.
README_LIFT = {"abscissas": [0, 1, 5, 2, 8, 3, 7, 4, 6]}
XS_FILE = "@xs"

# A liftable quadrilateral-set tuple and a liftable 3x4 grid tuple (the
# projection of a small-coefficient grid), next to tuples that do not
# lift.
QS_LIFTABLE = "-4 -3 -2 1 0 -1"
GRID_LIFTABLE = ("14/13 -4/9 2/3 31/28 -3/26 3/4 49/62 59/2 -1/2 178/159 "
                 "0 18/23")

GOLDEN = (
    ("check qs", 2,
     "da91c1db21fcb9a30bc26d7dcc66a97b65d932d8826abc9f81a30f242dd991f4"),
    ("check grid3x3", 0,
     "0f547212c5550e94f499d2b23521bc7ae167f10f057ee8f538133852e365cc7b"),
    ("check grid3x4", 2,
     "4a628d7c46f08cf6e07fbcc7c8d1bb983de1831e32d7c37097d2f50fd0826688"),
    ("check forest_single_line", 0,
     "a1bf0ae13e26ea344eceae3f241877bfeaf910c762cccd98e0668b5661845519"),
    ("check forest_two_lines", 0,
     "ed7344d50fc1b12f52da7ca1b7ba55f856599e78045179d8ad53f95a14f5c917"),
    ("check forest_path10", 0,
     "0f547212c5550e94f499d2b23521bc7ae167f10f057ee8f538133852e365cc7b"),
    ("check qs --deterministic", 2,
     "da91c1db21fcb9a30bc26d7dcc66a97b65d932d8826abc9f81a30f242dd991f4"),
    ("check forest_two_lines --deterministic", 0,
     "ed7344d50fc1b12f52da7ca1b7ba55f856599e78045179d8ad53f95a14f5c917"),
    ("check forest_single_line --deterministic", 0,
     "a1bf0ae13e26ea344eceae3f241877bfeaf910c762cccd98e0668b5661845519"),
    # The same bytes as `check grid3x4`: the deterministic rank is exact.
    ("check grid3x4 --deterministic", 2,
     "4a628d7c46f08cf6e07fbcc7c8d1bb983de1831e32d7c37097d2f50fd0826688"),
    ("qs-check 0 1 2 3 4 5", 2,
     "ba2606c405481bc14c9dcc7d582de5d36fc997207416531666d74bce0067376f"),
    ("qs-check " + QS_LIFTABLE, 0,
     "f7d3014821f68a6e9eab157a1ffe219f030b914ca8b57db245d947ac75441e3f"),
    ("qs-lift " + QS_LIFTABLE, 0,
     "c35ae846897f6bd024e6adfe5a53a9aa92172d218fa494d56f62555536a4b1c1"),
    ("qs-lift 0 1 2 3 4 5", 2,
     "149f6fcf68809ff7cdadbc869b739e829f7ca344db3388faa8f5685bc7319631"),
    ("grid-check 0 1 4 9 16 25 36 49 64 81 100 121", 2,
     "444e8e35d1375490c6b2cc382b2790b7ad3117ad371bd47fa58dc4d8195d8dce"),
    ("grid-check " + GRID_LIFTABLE, 0,
     "59a79ad96898c675343517cd84fa284456597bfa239b10929338c28f2e0bda10"),
    ("grid-lift " + GRID_LIFTABLE, 0,
     "9b522710266277fd697b0152b37a44bc81339232d0124b1ac49434daafae8fe7"),
    ("lift grid3x3 @xs", 0,
     "5adf0daf6f337554bac1bc0e4c8fb2dec0e2530394033f7fbdb425d29b5bcb19"),
    ("gens qs --format plain", 0,
     "232335c05532f1a97aaa5b78189bcc846948739d2a2ea98ab8a956409b8b0987"),
    ("gens qs --format cas", 0,
     "d9bb83401c3dfa1bf568ad2a8dd30d7a18c850cb6e7395b4c6633b568df71083"),
    ("gens qs --format json", 0,
     "7f993494310b0abcebb9a4720f4e02c609c0942498082fff639e8e25984fa20f"),
    ("gens grid34 --format plain", 0,
     "ab4bad89d1f6c13a19cad572dd23a20a2c360b29b83e5069ae689073e5f87a34"),
    ("gens grid34 --format cas", 0,
     "2ad405fc0721dd66afb19353e3f9dba23013f88710061140d672eb93ef876af8"),
    ("gens grid34 --format json", 0,
     "83fd9df82f9e24732f67813d64d7cc74a39a0abc0a99fd89c809b7a8db6ad2f0"),
    ("gens radical:qs --minor-size 3 --format json", 0,
     "d25c8cc33458ee1621be9b1a5f0235783c87a5c4ce9e4d57bcf717bdfc1c60f0"),
    ("gens radical:qs --minor-size 2 --format cas", 0,
     "82395e6d30776cfbde8313f52002fa5a2d45ccfb7f4d810799406f756f68e7be"),
    # Pins the generator labels, which follow the bundled line order.
    ("gens radical:grid3x3 --minor-size 2", 0,
     "d660f1f04516a05df66398875604e6a2798de005f78b0b942d7f54f686b77372"),
    # A k = 3 radical set of a configuration with many lines: 11,670
    # generators from every 3 x 3 minor that has a Leibniz product.
    ("gens radical:grid3x3 --minor-size 3", 0,
     "0755df2805b384bca26f773c81cb50aada914941cc0b16846569a870a621b850"),
    ("gens radical:forest_two_lines --minor-size 2", 0,
     "a8a799f7f2fb8fa0cd94f795fdb493067822959515602ec47e7bb2e690f99caa"),
    # Squared variables, and point indices of 10 and above ("x_10"
    # sorts before "x_2" in json), in one output each.
    ("gens radical:forest_path10 --minor-size 2 --format json", 0,
     "52bcac124c57d6dc7cd00eff680d32215a237f18c8aa08d13dd3dac75c0e6ddc"),
    ("gens radical:grid3x4 --minor-size 2 --format cas", 0,
     "4f5467146107182500247b8bbb507a6c76b2cf4b483bbb00baec8198901727a2"),
    ("verify tfae-qs --trials 2", 0,
     "822b1c6237b6bc9229657b63485ee0204ad3f34f49c387526f0290281968f44a"),
    ("verify decomp-qs --trials 1", 0,
     "a0d1551225d1aec29b31d5a05853fa1f9419a16732d1f2273dc2cd774e9548f0"),
    # The integer grid sampler, a generic projection, the lift of the
    # projected grid, epsilon scaling and all 44 grid generators.
    ("verify decomp-grid34 --trials 1 --seed 0", 0,
     "495ed6d3f9da6ec06461ba109c8587f9bedd9316706d011364ec76abc293e69e"),
    ("table1", 0,
     "6f82bde06de3a4894c9dcdf15c1537477da23d57f1cec8670f23ff1e6124dae4"),
)


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[argv for argv, _, _ in GOLDEN])
def test_cli_output_is_pinned(capsys, tmp_path, argv, code, digest):
    xs = tmp_path / "xs.json"
    xs.write_text(json.dumps(README_LIFT))
    args = [str(xs) if a == XS_FILE else a for a in argv.split()]
    assert main(args) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
