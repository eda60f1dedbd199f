"""A machine observer for tests that watch one run two ways."""


class Tee:
    """Forwards every machine event to each of several observers, in order."""

    def __init__(self, *observers):
        self.observers = observers

    def step(self, reads, writes):
        for o in self.observers:
            o.step(reads, writes)

    def drop(self, p, elems):
        for o in self.observers:
            o.drop(p, elems)

    def compute(self, p, consumed, produced):
        for o in self.observers:
            o.compute(p, consumed, produced)
