"""The built-in inputs: the files that `koszulkit fixtures` writes, the
data they are written from and the objects parsed from it."""

import hashlib

import pytest

from koszulkit.action import action_bundle_from_json, action_bundle_to_json
from koszulkit.cli import main
from koszulkit.fixtures import FIXTURE_NAMES, fixture_bundle
from koszulkit.quadratic import (
    QuadraticPresentation, ext_presentation, sym_presentation,
)
import fixture_oracle

# sha256 of every file that `koszulkit fixtures` writes, as it wrote them
# when the inputs were still built from koszulkit objects
DIGESTS = {
    "c2_sign_takiff.action.json":
        "609eb74b6eb4830a15218c6f17e5ac5d1ae585a7a3c9f1a8562494231c93a925",
    "c2_sign_takiff.presentation.json":
        "63bda0b7e6723fe62065133a224df609688fb10cc70f0db979a82128b979038e",
    "dual_numbers.presentation.json":
        "55e6504af8a41bab5250e546d8efe795308b578b37bf5bdf44fd838533771e97",
    "ext_2.presentation.json":
        "e9d27a3bd495542c86da7bde73e03dae08e4b52f40cd2c5f48ffa752268f0f52",
    "ext_3.presentation.json":
        "3073d85345a141500a3a7531598fb751ad48476b05eacd128286dbed53590bb6",
    "free_2.presentation.json":
        "83ae2bcd8929285f8dd05128a7ce03439808ddaeeedd6574ec2ceb8b099b23b1",
    "sl2_adjoint_takiff.action.json":
        "9b4d02674b154ea1da21e0441ea49ac53065fdedee888e37dafff5a72365281f",
    "sl2_adjoint_takiff.presentation.json":
        "a6cdcf03ecfb6e6864ebfec862e36d91ce008bce85d3195e6a39ecce8814a646",
    "sweedler_optional.action.json":
        "dc46ffb04f91a0d46b4f22157505275787d9ae14f25a99856401a77981ca71b6",
    "sweedler_optional.presentation.json":
        "55e6504af8a41bab5250e546d8efe795308b578b37bf5bdf44fd838533771e97",
    "sym_1.presentation.json":
        "63bda0b7e6723fe62065133a224df609688fb10cc70f0db979a82128b979038e",
    "sym_2.presentation.json":
        "adbf3399d8146f990d234fc7aa365560d662724a43bce73c046c033d70198013",
    "sym_3.presentation.json":
        "a6cdcf03ecfb6e6864ebfec862e36d91ce008bce85d3195e6a39ecce8814a646",
}


def test_written_files_keep_their_digests(tmp_path, capsys):
    for name in FIXTURE_NAMES:
        assert main(["fixtures", "--name", name, "--out-dir",
                     str(tmp_path)]) == 0
    capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == DIGESTS


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_data_is_the_constructed_input(name):
    assert fixture_bundle(name) == fixture_oracle.fixture_bundle(name)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_data_round_trips_through_the_parsers(name):
    bundle = fixture_bundle(name)
    pres = QuadraticPresentation.from_json_obj(bundle["presentation"])
    assert pres.to_json_obj() == bundle["presentation"]
    if bundle["action"] is not None:
        assert (action_bundle_to_json(*action_bundle_from_json(
            bundle["action"])) == bundle["action"])


def test_takiff_references_are_the_standard_presentations():
    # the takiff check compares an input's relations with those of
    # sym_presentation(k) and ext_presentation(k); the data of sym_3 and
    # ext_3 is theirs at k = 3
    assert fixture_bundle("sym_3")["presentation"] == (
        sym_presentation(3).to_json_obj())
    assert fixture_bundle("ext_3")["presentation"] == (
        ext_presentation(3).to_json_obj())


def test_bundles_are_fresh_copies():
    # editing one bundle, even where two entries hold the same data (sl2's
    # action on V and its adjoint module), changes nothing else
    bundle = fixture_bundle("sl2_adjoint_takiff")
    bundle["action"]["lie"]["action"]["e"][0][0] = "7"
    bundle["presentation"]["generators"][0] = "y"
    assert bundle["action"]["modules"]["adjoint"]["action"]["e"][0][0] == "0"
    assert fixture_bundle("sl2_adjoint_takiff") == (
        fixture_oracle.fixture_bundle("sl2_adjoint_takiff"))
    assert fixture_bundle("sym_3")["presentation"]["generators"][0] == "x1"
