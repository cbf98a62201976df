import pytest

from mutants import verdict


@pytest.mark.parametrize("code,said", [
    (0, "SURVIVED"),  # the node passed on the mutant
    (1, "caught"),  # the node failed
    (2, "caught"),  # its module no longer imports
    (4, "caught"),  # pytest no longer finds the node that collected unchanged
    (5, "error 5"),  # no test ran at all
])
def test_exit_codes_map_to_verdicts(code, said):
    assert verdict(code) == said

