import dataclasses
import datetime
import hashlib

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, rsa
from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature
from cryptography.x509.oid import NameOID
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
import strategies as strat
from samlforge import cryptoseal, xmlcodec
from samlforge.core import Assertion, EncryptedAssertion, EntityId
from samlforge.cryptoseal import (
    BadPassphrase,
    DecryptFailed,
    KeyCertMismatch,
    KeyEntry,
    KeyStore,
    MalformedKeystore,
    NoEncryptionCert,
    UnknownAlias,
    load_keystore,
    make_keystore,
    save_keystore,
    sign_element,
    sign_message,
    signed_info_bytes,
    verify_message,
    verify_signature,
    encrypt_assertion,
    decrypt_assertion,
)
from samlforge.xmlcodec import canonicalize, parse_xml

SIGNER = EntityId("mycompany:saml2.0")
PAYLOAD = (
    b'<saml:Assertion xmlns:saml="urn:oasis:names:tc:SAML:2.0:assertion" '
    b'ID="1234" IssueInstant="2009-04-22T12:33:36Z" Version="2.0">'
    b"<saml:Issuer>http://login.mycompany.com/mypartner</saml:Issuer></saml:Assertion>"
)


@pytest.fixture(scope="module")
def signer_entry(shared_keys):
    return shared_keys["idp-signing"]


@pytest.fixture(scope="module")
def store(signer_entry):
    return make_keystore({"signing": signer_entry})


@pytest.fixture(scope="module")
def trusting_store(store, signer_entry):
    return store.with_trust_anchors(SIGNER, signing=(signer_entry.cert_der,))


def _self_signed(key) -> KeyEntry:
    """``key`` with a one-day self-signed certificate, built with the crypto
    library directly."""
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "independent")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(1)
        .not_valid_before(now)
        .not_valid_after(now + datetime.timedelta(days=1))
        .sign(key, hashes.SHA256())
    )
    return KeyEntry(cert, key)


def _write_entry(path, entry: KeyEntry, passphrase: bytes) -> None:
    """A one-entry keystore file written without ``save_keystore``."""
    cert_pem = entry.certificate.public_bytes(serialization.Encoding.PEM)
    key_pem = entry.private_key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.BestAvailableEncryption(passphrase),
    )
    path.write_bytes(b"alias: only\n" + cert_pem + key_pem)


class TestKeystoreFile:
    def test_save_load_round_trip(self, tmp_path, shared_keys):
        # generate with the crypto library directly, save through the store,
        # compare exported public material byte for byte
        key = ec.generate_private_key(ec.SECP256R1())
        entry = _self_signed(key)
        path = tmp_path / "one.keystore"
        save_keystore(make_keystore({"only": entry}), path, "secret")
        loaded = load_keystore(path, "secret")
        assert list(loaded.entries) == ["only"]
        original_pub = key.public_key().public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
        )
        loaded_pub = (
            loaded.entries["only"]
            .private_key.public_key()
            .public_bytes(
                serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
            )
        )
        assert loaded_pub == original_pub
        assert loaded.entries["only"].cert_der == entry.cert_der

    def test_certificate_der_is_serialized_once(self, signer_entry):
        der = signer_entry.cert_der
        assert der == signer_entry.certificate.public_bytes(serialization.Encoding.DER)
        assert signer_entry.cert_der is der
        assert dataclasses.replace(signer_entry) == signer_entry

    def test_wrong_passphrase(self, tmp_path, signer_entry):
        path = tmp_path / "two.keystore"
        save_keystore(make_keystore({"signing": signer_entry}), path, "right")
        with pytest.raises(BadPassphrase):
            load_keystore(path, "wrong")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_keystore(tmp_path / "absent.keystore", "pw")

    def test_key_cert_mismatch_detected_at_load(self, tmp_path, signer_entry, rogue_key):
        mismatched = KeyEntry(signer_entry.certificate, rogue_key.private_key)
        with pytest.raises(KeyCertMismatch) as excinfo:
            make_keystore({"broken": mismatched})
        assert excinfo.value.alias == "broken"
        # and through the file path as well
        path = tmp_path / "three.keystore"
        _write_entry(path, mismatched, b"pw")
        with pytest.raises(KeyCertMismatch):
            load_keystore(path, "pw")

    @pytest.mark.parametrize(
        "make_key",
        [
            lambda: rsa.generate_private_key(public_exponent=65537, key_size=2048),
            lambda: ec.generate_private_key(ec.SECP384R1()),
        ],
        ids=["rsa-2048", "p-384"],
    )
    def test_only_p256_keys_load(self, tmp_path, make_key):
        entry = _self_signed(make_key())
        path = tmp_path / "other.keystore"
        _write_entry(path, entry, b"pw")
        with pytest.raises(MalformedKeystore, match="only P-256 keys are supported"):
            load_keystore(path, "pw")
        with pytest.raises(KeyCertMismatch):
            make_keystore({"only": entry})


class TestSigning:
    def test_sign_verify_round_trip(self, store, trusting_store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        assert signature.reference_id == "1234"
        assert verify_signature(PAYLOAD, signature, SIGNER, trusting_store).accepted

    def test_flipped_byte_is_digest_mismatch(self, store, trusting_store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        tampered = PAYLOAD[:40] + bytes([PAYLOAD[40] ^ 1]) + PAYLOAD[41:]
        result = verify_signature(tampered, signature, SIGNER, trusting_store)
        assert (result.accepted, result.reason) == (False, "DigestMismatch")

    def test_unregistered_certificate_rejected(self, store, rogue_key, trusting_store):
        # A valid signature by an unpinned key: the signature names no key,
        # and no pinned certificate's key verifies it.
        rogue_store = make_keystore({"signing": rogue_key})
        signature = sign_element(PAYLOAD, "1234", "signing", rogue_store)
        result = verify_signature(PAYLOAD, signature, SIGNER, trusting_store)
        assert (result.accepted, result.reason) == (False, "BadSignatureValue")

    def test_unknown_signer_rejected(self, store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        result = verify_signature(PAYLOAD, signature, EntityId("nobody"), store)
        assert (result.accepted, result.reason) == (False, "UnknownSigner")

    def test_unexpected_algorithm_rejected(self, store, trusting_store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        downgraded = dataclasses.replace(
            signature, signature_algorithm="http://www.w3.org/2000/09/xmldsig#rsa-sha1"
        )
        result = verify_signature(PAYLOAD, downgraded, SIGNER, trusting_store)
        assert (result.accepted, result.reason) == (False, "UnsupportedAlgorithm")

    def test_swapped_signature_value_rejected(self, store, trusting_store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        garbled = dataclasses.replace(
            signature, signature_value=bytes(reversed(signature.signature_value))
        )
        result = verify_signature(PAYLOAD, garbled, SIGNER, trusting_store)
        assert (result.accepted, result.reason) == (False, "BadSignatureValue")

    def test_same_message_signs_to_the_same_bytes(self, store):
        # RFC 6979 nonces: signed bytes are a function of key and message
        one = sign_element(PAYLOAD, "1234", "signing", store)
        two = sign_element(PAYLOAD, "1234", "signing", store)
        assert one == two
        assert len(one.signature_value) == 64

    @pytest.mark.parametrize("shape", ["63 bytes", "65 bytes", "DER"])
    def test_signature_value_must_be_64_bytes_of_r_and_s(self, store, trusting_store, shape):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        value = signature.signature_value
        r, s = int.from_bytes(value[:32], "big"), int.from_bytes(value[32:], "big")
        bent = {
            "63 bytes": value[:63],
            "65 bytes": b"\x00" + value,
            "DER": encode_dss_signature(r, s),
        }[shape]
        result = verify_signature(
            PAYLOAD, dataclasses.replace(signature, signature_value=bent), SIGNER, trusting_store
        )
        assert (result.accepted, result.reason) == (False, "BadSignatureValue")

    def test_signed_info_bytes_are_pinned(self):
        # SHA-256 of the SignedInfo every signature value covers.
        raw = signed_info_bytes("_abc", b"\x01" * 32)
        assert (
            hashlib.sha256(raw).hexdigest()
            == "86efbd788d40951bb4be76bb992aea50b5fa76c7fb95be64a53e20d11894b13c"
        )

    def test_sign_message_covers_the_unsigned_message(
        self, store, trusting_store, sample_response_bytes
    ):
        response = xmlcodec.parse_response(sample_response_bytes)
        signed = sign_message(response, xmlcodec.emit_response, "signing", store)
        assert signed.signature.reference_id == response.id
        unsigned = xmlcodec.emit_response(dataclasses.replace(response, signature=None))
        assert verify_signature(unsigned, signed.signature, SIGNER, trusting_store).accepted
        # signing a signed message replaces its signature instead of covering it
        assert sign_message(signed, xmlcodec.emit_response, "signing", store) == signed

    def test_verify_message_pins_the_given_certificates(
        self, store, signer_entry, sample_response_bytes
    ):
        response = xmlcodec.parse_response(sample_response_bytes)
        signed = sign_message(response, xmlcodec.emit_response, "signing", store)
        pinned = (signer_entry.cert_der,)

        def reason(message, ders=pinned):
            result = verify_message(message, xmlcodec.emit_response, SIGNER, ders, store)
            return result.reason if not result.accepted else "accepted"

        assert reason(signed) == "accepted"
        assert reason(signed, ders=()) == "UnknownSigner"
        # the reference is checked before any bytes are digested
        assert reason(dataclasses.replace(signed, id="_other")) == "WrongReference"
        other = dataclasses.replace(signed, destination="https://elsewhere.example/acs")
        assert reason(other) == "DigestMismatch"

    def test_pinned_certificates_are_parsed_once(
        self, store, signer_entry, rogue_key, monkeypatch
    ):
        # Every verify tries the pinned certificates in order up to the signer's.
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        pinned = store.with_trust_anchors(
            SIGNER, signing=(rogue_key.cert_der, b"not a certificate", signer_entry.cert_der)
        )
        loads = []
        load = cryptoseal.x509.load_der_x509_certificate

        def counting(der):
            loads.append(der)
            return load(der)

        monkeypatch.setattr(cryptoseal.x509, "load_der_x509_certificate", counting)
        cryptoseal._public_key.cache_clear()
        for _ in range(50):
            assert verify_signature(PAYLOAD, signature, SIGNER, pinned).accepted
        assert loads.count(rogue_key.cert_der) == 1
        assert loads.count(signer_entry.cert_der) == 1
        # a DER that does not parse is not remembered: it fails, and is skipped, every time
        assert loads.count(b"not a certificate") == 50

    def test_unknown_alias(self, store):
        with pytest.raises(UnknownAlias):
            sign_element(PAYLOAD, "1234", "nope", store)

    @given(position=st.integers(min_value=0, max_value=len(PAYLOAD) - 1), bit=st.integers(0, 7))
    @settings(max_examples=120)
    def test_tamper_detection_over_positions(self, store, trusting_store, position, bit):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        mutated = bytearray(PAYLOAD)
        mutated[position] ^= 1 << bit
        if bytes(mutated) == PAYLOAD:
            return
        assert not verify_signature(bytes(mutated), signature, SIGNER, trusting_store).accepted

    def test_cross_check_with_arithmetic_ecdsa(self, store, signer_entry, trusting_store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        numbers = signer_entry.private_key.private_numbers()
        point = (numbers.public_numbers.x, numbers.public_numbers.y)
        message = signed_info_bytes(signature.reference_id, signature.digest_value)
        assert oracles.ecdsa_verify(message, signature.signature_value, point)
        # and the reverse: an independently computed signature verifies here
        independent = oracles.ecdsa_sign(message, numbers.private_value)
        stitched = dataclasses.replace(signature, signature_value=independent)
        assert verify_signature(PAYLOAD, stitched, SIGNER, trusting_store).accepted
        # RFC 6979 fixes the nonce, so both computations give the same bytes
        assert independent == signature.signature_value


@pytest.fixture(scope="module")
def recipient_store(shared_keys):
    return KeyStore().with_trust_anchors(
        EntityId("mypartner:saml2.0"), encryption=(shared_keys["sp-encryption"].cert_der,)
    )


@pytest.fixture(scope="module")
def holder_store(shared_keys):
    return make_keystore({"sp-encryption": shared_keys["sp-encryption"]})


class TestSealing:

    def test_round_trip(self, recipient_store, holder_store):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        assert decrypt_assertion(enc, "sp-encryption", holder_store) == PAYLOAD

    def test_fresh_key_and_iv_per_call(self, recipient_store):
        one = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        two = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        assert one.iv != two.iv
        assert one.ciphertext != two.ciphertext
        assert one.encrypted_key != two.encrypted_key
        assert one.ephemeral_key != two.ephemeral_key
        assert len(one.ephemeral_key) == 65 and one.ephemeral_key[0] == 4

    def test_tampered_key_wrap_fails(self, recipient_store, holder_store):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        bent = dataclasses.replace(enc, encrypted_key=bytes(reversed(enc.encrypted_key)))
        with pytest.raises(DecryptFailed):
            decrypt_assertion(bent, "sp-encryption", holder_store)

    def test_wrong_private_key_fails(self, recipient_store, shared_keys):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        other = make_keystore({"idp-signing": shared_keys["idp-signing"]})
        with pytest.raises(DecryptFailed):
            decrypt_assertion(enc, "idp-signing", other)

    def test_tampered_ciphertext_never_yields_plaintext(self, recipient_store, holder_store):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        bent = dataclasses.replace(enc, ciphertext=bytes(reversed(enc.ciphertext)))
        # the GCM tag fails before any plaintext is released
        with pytest.raises(DecryptFailed):
            decrypt_assertion(bent, "sp-encryption", holder_store)

    def test_cbc_is_refused(self, recipient_store, holder_store):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        cbc = dataclasses.replace(enc, algorithm="http://www.w3.org/2001/04/xmlenc#aes128-cbc")
        with pytest.raises(DecryptFailed):
            decrypt_assertion(cbc, "sp-encryption", holder_store)

    @pytest.mark.parametrize("case", ["off-curve", "p-384", "truncated"])
    def test_ephemeral_point_must_be_on_p256(self, recipient_store, holder_store, case):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        point = enc.ephemeral_key
        p384 = ec.generate_private_key(ec.SECP384R1()).public_key().public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
        )
        bent = {
            # y + 1 leaves the curve: y and y + 1 cannot both square to x^3 - 3x + b
            "off-curve": point[:33] + (int.from_bytes(point[33:], "big") + 1).to_bytes(32, "big"),
            "p-384": p384,
            "truncated": point[:64],
        }[case]
        with pytest.raises(DecryptFailed) as excinfo:
            decrypt_assertion(
                dataclasses.replace(enc, ephemeral_key=bent), "sp-encryption", holder_store
            )
        assert str(excinfo.value) == "no held key unseals this assertion"

    def test_missing_recipient_cert(self):
        with pytest.raises(NoEncryptionCert):
            encrypt_assertion(PAYLOAD, EntityId("nobody"), KeyStore())

    def test_only_the_named_key_unseals(self, shared_keys):
        # An SP holds a signing and an encryption key; an assertion sealed to
        # its signing certificate must not be opened with the signing key.
        sp = EntityId("mypartner:saml2.0")
        to_signing = KeyStore().with_trust_anchors(
            sp, encryption=(shared_keys["sp-signing"].cert_der,)
        )
        enc = encrypt_assertion(PAYLOAD, sp, to_signing)
        both = make_keystore(
            {"sp-signing": shared_keys["sp-signing"], "sp-encryption": shared_keys["sp-encryption"]}
        )
        assert decrypt_assertion(enc, "sp-signing", both) == PAYLOAD
        for alias in ("sp-encryption", "no-such-alias", None):
            with pytest.raises(DecryptFailed) as excinfo:
                decrypt_assertion(enc, alias, both)
            assert str(excinfo.value) == "no held key unseals this assertion"


# ---------------------------------------------------------------------------
# Emitted bytes kept on signed messages
# ---------------------------------------------------------------------------

_encrypted_assertions = st.builds(
    EncryptedAssertion,
    algorithm=st.just(xmlcodec.ALG_AES128_GCM),
    ephemeral_key=st.binary(min_size=65, max_size=65),
    encrypted_key=st.binary(min_size=24, max_size=24),
    iv=st.binary(min_size=12, max_size=12),
    ciphertext=st.binary(min_size=16, max_size=96),
)

# (emitter, reference element builder, messages) per signable kind; a Response
# carries the issuer as text, so it also covers a self-closing <saml:Issuer/>.
_SIGNABLE = {
    "Response": (
        xmlcodec.emit_response,
        oracles.response_element,
        st.builds(
            dataclasses.replace,
            strat.responses,
            assertion=st.none() | strat.assertions | _encrypted_assertions,
            issuer=st.sampled_from(["", "mycompany:saml2.0"]) | strat.trimmed_text(1, 30),
        ),
    ),
    "AuthnRequest": (
        xmlcodec.emit_authn_request,
        oracles.authn_request_element,
        strat.authn_requests,
    ),
    "LogoutRequest": (
        xmlcodec.emit_logout_request,
        oracles.logout_request_element,
        strat.logout_requests,
    ),
    "LogoutResponse": (
        xmlcodec.emit_logout_response,
        oracles.logout_response_element,
        strat.logout_responses,
    ),
}


def _fresh(message):
    """An equal copy that has never been emitted, nested assertion included."""
    inner = getattr(message, "assertion", None)
    if isinstance(inner, Assertion):
        return dataclasses.replace(message, assertion=dataclasses.replace(inner))
    return dataclasses.replace(message)


class TestSignedBytes:
    @pytest.mark.parametrize("kind", sorted(_SIGNABLE))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_signed_bytes_equal_a_full_render(self, store, kind, data):
        emit, build, messages = _SIGNABLE[kind]
        message = data.draw(messages)
        signed = sign_message(message, emit, "signing", store)
        fresh = _fresh(signed)
        assert fresh == signed
        expected = canonicalize(build(fresh))
        assert emit(signed) == expected
        assert emit(fresh) == expected
        assert parse_xml(expected) == build(signed)

    def test_replace_renders_the_new_fields(self, store, sample_response_bytes):
        response = xmlcodec.parse_response(sample_response_bytes)
        assertion = response.assertion
        signed = sign_message(response, xmlcodec.emit_response, "signing", store)
        before = xmlcodec.emit_response(signed)
        # the kept bytes are no field: not compared, not shown
        assert dataclasses.replace(signed) == signed
        assert "emitted" not in repr(signed)

        moved = dataclasses.replace(signed, destination="https://elsewhere.example/acs")
        assert xmlcodec.emit_response(moved) == canonicalize(oracles.response_element(moved))
        assert b"elsewhere.example" in xmlcodec.emit_response(moved)

        renamed = dataclasses.replace(assertion, issuer="other:saml2.0")
        assert xmlcodec.emit_assertion(renamed) == canonicalize(oracles.assertion_element(renamed))
        rewrapped = dataclasses.replace(signed, assertion=renamed)
        assert b"other:saml2.0" in xmlcodec.emit_response(rewrapped)
        assert xmlcodec.emit_response(signed) == before

    def test_insert_signature_needs_a_leading_issuer(self, store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        bare = b'<samlp:Status xmlns:samlp="urn:oasis:names:tc:SAML:2.0:protocol"/>'
        with pytest.raises(ValueError):
            xmlcodec.insert_signature(bare, signature)
