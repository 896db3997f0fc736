"""Application wire format and result decoding."""

import pytest

from repro.common.errors import ConfigurationError, DebugletError, ManifestError
from repro.core.application import DebugletApplication
from repro.core.results import EchoMeasurement, OneWayMeasurement, ServerReport
from repro.netsim.packet import Address, Protocol
from repro.netsim.topology import PathHop
from repro.sandbox.programs import echo_client


def _pairs(*pairs) -> bytes:
    return b"".join(
        v.to_bytes(8, "little", signed=True) for pair in pairs for v in pair
    )


class TestApplicationWireFormat:
    def _app(self, path=None):
        stock = echo_client(Protocol.UDP, Address(2, "exec1"), count=3)
        return DebugletApplication.from_stock("cli", stock, path=path)

    def test_roundtrip(self):
        path = [PathHop(1, None, 2), PathHop(2, 1, None)]
        app = self._app(path=path)
        clone = DebugletApplication.from_wire(app.to_wire())
        assert clone.name == app.name
        assert clone.manifest == app.manifest
        assert clone.path == path
        assert clone.code_hash() == app.code_hash()

    def test_roundtrip_without_path(self):
        app = self._app()
        clone = DebugletApplication.from_wire(app.to_wire())
        assert clone.path is None

    def test_malformed_wire_rejected(self):
        with pytest.raises(ManifestError):
            DebugletApplication.from_wire(b"garbage")

    def test_stack_invalid_wire_constructs_and_is_left_to_the_verifier(self):
        """A program that underflows its operand stack used to throw a
        bare IndexError out of capability inference — through
        ``__post_init__``, ``from_wire`` and everything that calls them.
        Nothing is provable about it, so construction succeeds and
        ``Executor.admit``'s verifier run is what rejects it (V200)."""
        from repro.sandbox.assembler import assemble

        source = ".memory 64\n.func run_debuglet 0 0\ndrop\npush 0\nret\n.end\n"
        app = DebugletApplication(
            "underflow", self._app().manifest, module=assemble(source)
        )
        clone = DebugletApplication.from_wire(app.to_wire())
        assert clone.code_hash() == app.code_hash()

    def test_exactly_one_program_source_required(self):
        stock = echo_client(Protocol.UDP, Address(2, "x"), count=1)
        with pytest.raises(ConfigurationError):
            DebugletApplication("bad", stock.manifest)
        with pytest.raises(ConfigurationError):
            DebugletApplication(
                "bad", stock.manifest, module=stock.module,
                native_factory=lambda: None,
            )

    def test_native_cannot_ship(self):
        stock = echo_client(Protocol.UDP, Address(2, "x"), count=1)
        app = DebugletApplication(
            "native", stock.manifest, native_factory=lambda: None
        )
        with pytest.raises(ConfigurationError):
            app.to_wire()

    def test_size_bytes_tracks_program_size(self):
        small = DebugletApplication.from_stock(
            "s", echo_client(Protocol.UDP, Address(2, "x"), count=1)
        )
        assert small.size_bytes == len(small.to_wire())


class TestEchoMeasurement:
    def test_statistics(self):
        result = _pairs((0, 1000), (1, 2000), (2, 3000))
        echo = EchoMeasurement.from_result(result, probes_sent=5)
        assert echo.received == 3
        assert echo.lost == 2
        assert echo.loss_rate() == pytest.approx(0.4)
        assert echo.mean_rtt_ms() == pytest.approx(2.0)
        assert echo.std_rtt_ms() == pytest.approx(1.0)

    def test_out_of_range_seq_rejected(self):
        with pytest.raises(DebugletError):
            EchoMeasurement.from_result(_pairs((7, 100)), probes_sent=3)

    def test_empty_result(self):
        echo = EchoMeasurement.from_result(b"", probes_sent=4)
        assert echo.loss_rate() == 1.0

    def test_summary_keys(self):
        echo = EchoMeasurement.from_result(_pairs((0, 500)), probes_sent=1)
        assert set(echo.summary()) == {
            "sent", "received", "mean_rtt_ms", "std_rtt_ms", "loss_rate",
        }


class TestServerReport:
    def test_decodes_count(self):
        assert ServerReport.from_result(_pairs((0, 17))).echoes == 17

    def test_malformed_rejected(self):
        with pytest.raises(DebugletError):
            ServerReport.from_result(_pairs((1, 17)))


class TestOneWayMeasurement:
    def test_combines_sender_receiver(self):
        sender = _pairs((0, 1000), (1, 2000), (2, 3000))
        receiver = _pairs((0, 1500), (2, 3800))
        oneway = OneWayMeasurement.combine(sender, receiver)
        assert oneway.sent == 3
        assert oneway.received == 2
        assert oneway.loss_rate() == pytest.approx(1 / 3)
        assert oneway.delays_us == {0: 500, 2: 800}
        assert oneway.mean_delay_ms() == pytest.approx(0.65)

    def test_unknown_seq_rejected(self):
        with pytest.raises(DebugletError):
            OneWayMeasurement.combine(_pairs((0, 1000)), _pairs((5, 1500)))
