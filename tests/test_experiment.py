import pytest
from hypothesis import assume, given, settings, strategies as st

from empers.config import ShapeClassConfig
from empers.errors import ConfigError, DataError
from empers.experiment import _artifact_name, _parse_artifact_name


def _accepted_label(label: str) -> bool:
    try:
        ShapeClassConfig("circle", label=label)
    except ConfigError:
        return False
    return True


# characters that name parts of an artifact name, mixed with arbitrary ones
LABELS = st.text(st.sampled_from("_h0123456789.csv -") | st.characters(), min_size=1)


class TestArtifactNames:
    @settings(max_examples=300)
    @given(LABELS, st.integers(0, 10**6), st.integers(0, 10**6),
           st.none() | st.integers(0, 12))
    def test_names_of_accepted_labels_round_trip(self, label, instance, repeat, degree):
        assume(_accepted_label(label))
        key = (label, instance, repeat)
        assert _parse_artifact_name(_artifact_name(key, degree)) == (key, degree)

    @pytest.mark.parametrize("name, parsed", [
        ("circle__0003__0012.csv", (("circle", 3, 12), None)),
        ("circle__0003__0012__h1.csv", (("circle", 3, 12), 1)),
        ("a___0000__0001.csv", (("a_", 0, 1), None)),
        ("a__h1__0000__0001__h0.csv", (("a__h1", 0, 1), 0)),
    ])
    def test_label_is_all_before_the_last_two_numbers(self, name, parsed):
        assert _parse_artifact_name(name) == parsed

    @pytest.mark.parametrize("name", ["foo.csv", "foo__h0.csv", "a__1.csv",
                                      "a__x__1.csv", "a__0001__0002.txt", "__0001__0002.csv"])
    def test_other_names_are_data_errors(self, name):
        with pytest.raises(DataError, match="cannot parse artifact name"):
            _parse_artifact_name(name)
