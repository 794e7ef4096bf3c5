import dataclasses
import hashlib

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
from samlforge import xmlcodec
from samlforge.core import EntityId
from samlforge.cryptoseal import (
    BadPassphrase,
    DecryptFailed,
    KeyCertMismatch,
    KeyEntry,
    KeyStore,
    NoEncryptionCert,
    UnknownAlias,
    load_keystore,
    make_keystore,
    save_keystore,
    sign_element,
    sign_message,
    signed_info_bytes,
    verify_signature,
    encrypt_assertion,
    decrypt_assertion,
)

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


class TestKeystoreFile:
    def test_save_load_round_trip(self, tmp_path, shared_keys):
        # generate with the crypto library directly, save through the store,
        # compare exported public material byte for byte
        key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
        from cryptography import x509
        from cryptography.hazmat.primitives import hashes
        from cryptography.x509.oid import NameOID
        import datetime

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
        entry = KeyEntry(cert, key)
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
        cert_pem = signer_entry.certificate.public_bytes(serialization.Encoding.PEM)
        key_pem = rogue_key.private_key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.BestAvailableEncryption(b"pw"),
        )
        path.write_bytes(b"alias: broken\n" + cert_pem + key_pem)
        with pytest.raises(KeyCertMismatch):
            load_keystore(path, "pw")


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
        rogue_store = make_keystore({"signing": rogue_key})
        signature = sign_element(PAYLOAD, "1234", "signing", rogue_store)
        result = verify_signature(PAYLOAD, signature, SIGNER, trusting_store)
        assert (result.accepted, result.reason) == (False, "UntrustedCertificate")

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

    def test_signed_info_bytes_are_pinned(self):
        # SHA-256 of the SignedInfo every signature value covers.
        raw = signed_info_bytes("_abc", b"\x01" * 32)
        assert (
            hashlib.sha256(raw).hexdigest()
            == "936e77353d131ba4e07ca3ae0017adee26cbb3a771990e4a62da3a328667786b"
        )

    def test_sign_message_covers_the_unsigned_message(
        self, store, trusting_store, sample_response_bytes
    ):
        assertion = xmlcodec.parse_response(sample_response_bytes).assertion
        signed = sign_message(assertion, xmlcodec.emit_assertion, "signing", store)
        assert signed.signature.reference_id == assertion.id
        unsigned = xmlcodec.emit_assertion(dataclasses.replace(assertion, signature=None))
        assert verify_signature(unsigned, signed.signature, SIGNER, trusting_store).accepted
        # signing a signed message replaces its signature instead of covering it
        assert sign_message(signed, xmlcodec.emit_assertion, "signing", store) == signed

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

    def test_cross_check_with_arithmetic_rsa(self, store, signer_entry, trusting_store):
        signature = sign_element(PAYLOAD, "1234", "signing", store)
        numbers = signer_entry.private_key.private_numbers()
        n = numbers.public_numbers.n
        e = numbers.public_numbers.e
        message = signed_info_bytes(signature.reference_id, signature.digest_value)
        assert oracles.rsa_verify(message, signature.signature_value, n, e)
        # and the reverse: an independently computed signature verifies here
        independent = oracles.rsa_sign(message, n, numbers.d)
        stitched = dataclasses.replace(signature, signature_value=independent)
        assert verify_signature(PAYLOAD, stitched, SIGNER, trusting_store).accepted


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
        assert decrypt_assertion(enc, holder_store) == PAYLOAD

    def test_fresh_key_and_iv_per_call(self, recipient_store):
        one = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        two = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        assert one.iv != two.iv
        assert one.ciphertext != two.ciphertext
        assert one.encrypted_key != two.encrypted_key

    def test_tampered_key_wrap_fails(self, recipient_store, holder_store):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        bent = dataclasses.replace(enc, encrypted_key=bytes(reversed(enc.encrypted_key)))
        with pytest.raises(DecryptFailed):
            decrypt_assertion(bent, holder_store)

    def test_wrong_private_key_fails(self, recipient_store, shared_keys):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        other = make_keystore({"idp-signing": shared_keys["idp-signing"]})
        with pytest.raises(DecryptFailed):
            decrypt_assertion(enc, other)

    def test_tampered_ciphertext_never_yields_plaintext(self, recipient_store, holder_store):
        enc = encrypt_assertion(PAYLOAD, EntityId("mypartner:saml2.0"), recipient_store)
        bent = dataclasses.replace(enc, ciphertext=bytes(reversed(enc.ciphertext)))
        try:
            recovered = decrypt_assertion(bent, holder_store)
        except DecryptFailed:
            return
        # CBC without integrity can unpad garbage; it must never equal the input
        assert recovered != PAYLOAD

    def test_missing_recipient_cert(self):
        with pytest.raises(NoEncryptionCert):
            encrypt_assertion(PAYLOAD, EntityId("nobody"), KeyStore())
