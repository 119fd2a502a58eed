"""The built-in inputs: the files that `koszulkit fixtures` writes, the
data they are written from and the objects parsed from it."""

import hashlib

import pytest

from koszulkit.action import action_bundle_from_json
from koszulkit.check import _load_action, _load_presentation
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


def _parsed(bundle):
    """(presentation, action or None) of a bundle, as the parsers read it."""
    action = bundle["action"]
    return (QuadraticPresentation.from_json_obj(bundle["presentation"]),
            None if action is None else action_bundle_from_json(action))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_data_is_the_constructed_input(name):
    assert fixture_oracle.differences(name, *_parsed(fixture_bundle(name))) \
        == []


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_data_round_trips_through_the_parsers(name, tmp_path, capsys):
    # the files that `koszulkit fixtures` writes, read back by the loaders
    # of `check`, are the constructed input
    assert main(["fixtures", "--name", name, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    pres = _load_presentation(str(tmp_path / (name + ".presentation.json")))
    act = tmp_path / (name + ".action.json")
    action = _load_action(str(act)) if act.exists() else None
    assert fixture_oracle.differences(name, pres, action) == []


@pytest.mark.parametrize("name,path,value,fields", [
    ("sym_2", ["presentation", "relations", 0, "terms", 1], None,
     ["presentation"]),
    ("c2_sign_takiff", ["action", "action", 1, 0, 0], "1", ["mats"]),
    ("c2_sign_takiff", ["action", "modules", "sign"], None, ["modules"]),
    ("sweedler_optional", ["action", "bialgebra", "comult", 8, 2], "0",
     ["legs", "base.comult"]),
    ("sl2_adjoint_takiff", ["action", "lie", "brackets", "e,f"], None,
     ["laws", "base.brackets"]),
    ("sl2_adjoint_takiff",
     ["action", "modules", "adjoint", "action", "h", 0, 0], "3",
     ["base.modules", "modules"]),
], ids=["relation", "action", "module", "comult", "bracket", "lie-module"])
def test_the_oracle_sees_an_edit(name, path, value, fields):
    # one entry of the data set to value, or removed when it is None,
    # shows in the fields that it defines
    bundle = fixture_bundle(name)
    *head, last = path
    node = bundle
    for key in head:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value
    assert fixture_oracle.differences(name, *_parsed(bundle)) == fields


def test_takiff_references_are_the_standard_presentations():
    # the takiff check compares an input's relations with those of
    # sym_presentation(k) and ext_presentation(k); the data of sym_3 and
    # ext_3 is theirs at k = 3
    for name, build in (("sym_3", sym_presentation),
                        ("ext_3", ext_presentation)):
        assert QuadraticPresentation.from_json_obj(
            fixture_bundle(name)["presentation"]) == build(3)


def test_bundles_are_fresh_copies():
    # editing one bundle, even where two entries hold the same data (sl2's
    # action on V and its adjoint module), changes nothing else
    before = fixture_bundle("sl2_adjoint_takiff")
    bundle = fixture_bundle("sl2_adjoint_takiff")
    bundle["action"]["lie"]["action"]["e"][0][0] = "7"
    bundle["presentation"]["generators"][0] = "y"
    assert bundle["action"]["modules"]["adjoint"]["action"]["e"][0][0] == "0"
    assert fixture_bundle("sl2_adjoint_takiff") == before
    assert fixture_bundle("sym_3")["presentation"]["generators"][0] == "x1"
