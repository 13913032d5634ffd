"""Cross-host-DPU flow control (Section 6 co-design).

"As network messages are eventually processed on the host, flow
control now spans the host and the DPU … reflect the signals from
host applications in the flow control protocol."  A slow host
consumer must throttle the remote TCP sender end to end.
"""

import pytest

from repro.buffers import SynthBuffer
from repro.core import DpdpuRuntime
from repro.hardware import BLUEFIELD2, connect, make_server
from repro.sim import Environment
from repro.units import PAGE_SIZE


@pytest.fixture
def env():
    return Environment()


def _pair(env):
    a = make_server(env, name="a", dpu_profile=BLUEFIELD2)
    b = make_server(env, name="b", dpu_profile=BLUEFIELD2)
    connect(a, b)
    return DpdpuRuntime(a), DpdpuRuntime(b)


class TestHostBackpressure:
    def test_slow_consumer_throttles_remote_sender(self, env):
        runtime_a, runtime_b = _pair(env)
        listener = runtime_b.network.listen(6100)
        sent_times = []
        # Enough messages that the end-to-end pipeline slack (send
        # queue + receive window + host rx queue, ~400 messages) can
        # not absorb the stream without throttling the sender.
        n_messages = 1200

        def sender():
            socket = yield runtime_a.network.connect(6100).done
            for _ in range(n_messages):
                yield socket.send(SynthBuffer(PAGE_SIZE)).done
                sent_times.append(env.now)

        def slow_consumer():
            socket = yield listener.accept().done
            for _ in range(n_messages):
                yield env.timeout(200e-6)      # app is the bottleneck
                yield socket.recv().done

        env.process(sender())
        env.process(slow_consumer())
        env.run(until=2.0)
        assert len(sent_times) == n_messages
        # The sender cannot run arbitrarily far ahead: past the
        # pipeline slack, its acceptance rate is pinned to the
        # consumer's ~5 K msgs/s, not the wire's ~1.4 M msgs/s.
        total = sent_times[-1] - sent_times[0]
        assert total > 0.5 * n_messages * 200e-6

    def test_fast_consumer_is_not_throttled(self, env):
        runtime_a, runtime_b = _pair(env)
        listener = runtime_b.network.listen(6101)
        finish = {}
        n_messages = 200

        def sender():
            socket = yield runtime_a.network.connect(6101).done
            for _ in range(n_messages):
                yield socket.send(SynthBuffer(PAGE_SIZE)).done
            finish["sent_at"] = env.now

        def fast_consumer():
            socket = yield listener.accept().done
            for _ in range(n_messages):
                yield socket.recv().done
            finish["received_at"] = env.now

        env.process(sender())
        env.process(fast_consumer())
        env.run(until=1.0)
        # At wire/DPU speed, 200 pages take well under 10 ms.
        assert finish["received_at"] < 0.01

    def test_dpu_window_reflects_host_lag(self, env):
        """While the host app lags, the DPU stack's advertised window
        visibly shrinks relative to its receive buffer."""
        runtime_a, runtime_b = _pair(env)
        listener = runtime_b.network.listen(6102)
        observed = {}

        def sender():
            socket = yield runtime_a.network.connect(6102).done
            for _ in range(300):
                yield socket.send(SynthBuffer(PAGE_SIZE)).done

        def stalled_consumer():
            socket = yield listener.accept().done
            # Consume nothing for a while, then sample the window.
            yield env.timeout(20e-3)
            connection = socket._conn
            observed["window"] = connection._advertised_window()
            observed["buffer"] = 1 << 20      # the socket buffer
            for _ in range(300):
                yield socket.recv().done

        env.process(sender())
        env.process(stalled_consumer())
        env.run(until=1.0)
        assert observed["window"] < observed["buffer"] / 2
