import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from samlforge import cryptoseal
from samlforge.harness.scenarios import SimulatedFederation, _shared_keys

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# More examples for the differential tests in CI:
# ``pytest --hypothesis-profile=ci``. Tests that pin max_examples keep it.
settings.register_profile("ci", settings.get_profile("default"), max_examples=1000)
settings.load_profile("default")

CORPUS = Path(__file__).parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def idp_metadata_bytes() -> bytes:
    return (CORPUS / "idp_metadata.xml").read_bytes()


@pytest.fixture(scope="session")
def sp_metadata_bytes() -> bytes:
    return (CORPUS / "sp_metadata.xml").read_bytes()


@pytest.fixture(scope="session")
def sample_response_bytes() -> bytes:
    return (CORPUS / "sample_response.xml").read_bytes()


@pytest.fixture(scope="session")
def shared_keys() -> dict[str, cryptoseal.KeyEntry]:
    """One set of keypairs per test session, the harness's own."""
    return _shared_keys()


@pytest.fixture(scope="session")
def rogue_key() -> cryptoseal.KeyEntry:
    return cryptoseal.new_keypair("rogue")


@pytest.fixture
def federation(shared_keys) -> SimulatedFederation:
    return SimulatedFederation(keys=shared_keys)


@pytest.fixture
def encrypted_federation(shared_keys) -> SimulatedFederation:
    return SimulatedFederation(encrypt=True, keys=shared_keys)
