"""Manifests and executor admission policies."""

import pytest

from repro.common.errors import ManifestError
from repro.netsim.packet import Address, Protocol
from repro.sandbox.manifest import ExecutorPolicy, Manifest


def _manifest(**overrides) -> Manifest:
    defaults = dict(
        max_instructions=1000,
        max_duration=10.0,
        max_memory_bytes=65536,
        max_packets_sent=100,
        max_packets_received=100,
        contacts=(Address(2, "exec1"),),
        capabilities=("udp",),
    )
    defaults.update(overrides)
    return Manifest(**defaults)


class TestValidation:
    def test_positive_limits_required(self):
        with pytest.raises(ManifestError):
            _manifest(max_instructions=0)
        with pytest.raises(ManifestError):
            _manifest(max_duration=0)
        with pytest.raises(ManifestError):
            _manifest(max_memory_bytes=0)

    def test_unknown_capability_rejected(self):
        with pytest.raises(ManifestError):
            _manifest(capabilities=("quic",))

    def test_allows_protocol(self):
        manifest = _manifest(capabilities=("udp", "icmp"))
        assert manifest.allows_protocol(Protocol.UDP)
        assert manifest.allows_protocol(Protocol.ICMP)
        assert not manifest.allows_protocol(Protocol.TCP)

    def test_roundtrip_dict(self):
        manifest = _manifest()
        assert Manifest.from_dict(manifest.as_dict()) == manifest


class TestModuleCheck:
    def test_module_memory_over_declaration_rejected(self):
        from repro.sandbox.assembler import assemble

        module = assemble(
            ".memory 131072\n.func run_debuglet 0 0\npush 0\nret\n.end"
        )
        with pytest.raises(ManifestError):
            _manifest(max_memory_bytes=65536).validate_module(module)


class TestExecutorPolicy:
    def test_admits_fitting_manifest(self):
        ExecutorPolicy().admit(_manifest())

    def test_rejects_over_budget(self):
        policy = ExecutorPolicy(max_packets_sent=10)
        with pytest.raises(ManifestError, match="max_packets_sent"):
            policy.admit(_manifest(max_packets_sent=100))

    def test_rejects_unoffered_capability(self):
        policy = ExecutorPolicy(offered_capabilities=("udp",))
        with pytest.raises(ManifestError, match="not offered"):
            policy.admit(_manifest(capabilities=("udp", "tcp")))

    def test_rejects_blocked_contact_as(self):
        policy = ExecutorPolicy(blocked_asns=frozenset({2}))
        with pytest.raises(ManifestError, match="blocked"):
            policy.admit(_manifest())

    def test_duration_ceiling(self):
        policy = ExecutorPolicy(max_duration=5.0)
        with pytest.raises(ManifestError, match="max_duration"):
            policy.admit(_manifest(max_duration=10.0))

    @pytest.mark.parametrize("mode", ["off", "lax", "warn", "strict"])
    def test_verification_is_not_a_setting(self, mode):
        # the verifier's verdict is the admission verdict: no policy
        # field skips it or admits what fails it
        with pytest.raises(TypeError, match="verification"):
            ExecutorPolicy(verification=mode)
