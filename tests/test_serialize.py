import json
from fractions import Fraction as F

import pytest

from starweyl import serialize
from starweyl.dynkin import ParamVector
from starweyl.errors import InputFormatError
from starweyl.fuchsian import sample_system, signature
from starweyl.ratlin import GaussianRational, format_rational
from starweyl.sakai import PointConfig


def test_system_round_trip_exact():
    sysm, lam = sample_system("E7", seed=4)
    doc = serialize.system_out(sysm)
    text = serialize.dumps(doc)
    back = serialize.system_in(serialize.loads(text))
    assert back.lam.values == sysm.lam.values
    assert back.nu == sysm.nu
    assert back.offsets == sysm.offsets
    assert back.poles == sysm.poles
    # floats round-trip bit for bit through repr
    for a, b in zip(back.residues, sysm.residues):
        assert (a == b).all()
    assert signature(back, 3).distance(signature(sysm, 3)) == 0.0


def test_lam_round_trip_fields():
    lam = ParamVector((F(1, 3), F(-2, 7), GaussianRational(F(1, 2), F(3, 5))))
    doc = serialize.lam_out(lam)
    assert doc["field"] == "Qi"
    back = serialize.lam_in(json.loads(json.dumps(doc)))
    assert back.values == lam.values


def test_config_round_trip():
    # config-v1 is read-only: the package has its reader and no writer
    p = PointConfig((F(1, 2), F(-3, 7), F(0), F(5), F(7, 11), F(9)))
    doc = {"schema": serialize.CONFIG_SCHEMA,
           "points": [format_rational(u) for u in p.values]}
    back = serialize.config_in(serialize.loads(serialize.dumps(doc)))
    assert back.values == p.values


def test_word_round_trip():
    tags = (("leg", 3), ("central",), ("tensor", (1, 0, -2)),
            ("relabel", (1, 0, 2, 3)))
    back = serialize.word_in(serialize.loads(serialize.dumps(
        serialize.word_out(tags))))
    assert back == tags


def test_malformed_documents_raise():
    with pytest.raises(InputFormatError):
        serialize.loads("not json")
    with pytest.raises(InputFormatError):
        serialize.system_in({"schema": "nope"})
    with pytest.raises(InputFormatError):
        serialize.config_in({"schema": serialize.CONFIG_SCHEMA,
                             "points": ["1/2+1/3i"] * 6})
    with pytest.raises(InputFormatError):
        serialize.word_in({"schema": serialize.WORD_SCHEMA,
                           "tags": [["mystery"]]})
