import pytest

from pemshuffle import workload


@pytest.fixture
def draws(monkeypatch):
    """The (N_M, N_R, H) of every instance ``generate`` draws in the test,
    which starts with no instance kept."""
    drawn = []
    sample = workload._sample_positions

    def counting(rng, N_M, N_R, H, regularity):
        drawn.append((N_M, N_R, H))
        return sample(rng, N_M, N_R, H, regularity)

    monkeypatch.setattr(workload, "_sample_positions", counting)
    monkeypatch.setattr(workload, "_last_drawn", None)
    return drawn
