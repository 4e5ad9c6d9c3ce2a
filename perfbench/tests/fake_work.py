"""A stand-in layer stack for the span arithmetic tests: each method
spends fake-clock time, some of it inside nested calls."""

CLOCK = [0]


def spend(ns):
    CLOCK[0] += ns


class Work:
    def outer(self):
        spend(5)
        self.inner()
        spend(2)
        self.inner()
        return "done"

    def inner(self):
        spend(3)

    def window(self, depth):
        spend(4)
        if depth:
            self.window(depth - 1)
        spend(1)

    def fails(self):
        spend(6)
        raise RuntimeError("boom")

    def collects(self, tracer):
        spend(3)
        tracer._on_gc("start", {"generation": 2})
        spend(5)
        tracer._on_gc("stop", {"generation": 2})
        spend(1)
