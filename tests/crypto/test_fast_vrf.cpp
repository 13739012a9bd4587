#include "crypto/fast_vrf.h"

#include <gtest/gtest.h>

#include <set>

#include "common/errors.h"

namespace coincidence::crypto {
namespace {

class FastVrfTest : public ::testing::Test {
 protected:
  FastVrfTest() : registry_(KeyRegistry::create_for(8, 1234)), vrf_(registry_) {}

  std::shared_ptr<KeyRegistry> registry_;
  FastVrf vrf_;
};

TEST_F(FastVrfTest, HonestEvalVerifies) {
  VrfOutput out = vrf_.eval(registry_->sk_of(0), bytes_of("r1"));
  EXPECT_TRUE(vrf_.verify(registry_->pk_of(0), bytes_of("r1"), out));
}

TEST_F(FastVrfTest, Deterministic) {
  VrfOutput a = vrf_.eval(registry_->sk_of(1), bytes_of("x"));
  VrfOutput b = vrf_.eval(registry_->sk_of(1), bytes_of("x"));
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.proof, b.proof);
}

TEST_F(FastVrfTest, DistinctAcrossKeysAndInputs) {
  EXPECT_NE(vrf_.eval(registry_->sk_of(0), bytes_of("x")).value,
            vrf_.eval(registry_->sk_of(1), bytes_of("x")).value);
  EXPECT_NE(vrf_.eval(registry_->sk_of(0), bytes_of("x")).value,
            vrf_.eval(registry_->sk_of(0), bytes_of("y")).value);
}

TEST_F(FastVrfTest, WrongPkRejected) {
  VrfOutput out = vrf_.eval(registry_->sk_of(0), bytes_of("x"));
  EXPECT_FALSE(vrf_.verify(registry_->pk_of(1), bytes_of("x"), out));
}

TEST_F(FastVrfTest, WrongInputRejected) {
  VrfOutput out = vrf_.eval(registry_->sk_of(0), bytes_of("x"));
  EXPECT_FALSE(vrf_.verify(registry_->pk_of(0), bytes_of("y"), out));
}

TEST_F(FastVrfTest, TamperedValueRejected) {
  VrfOutput out = vrf_.eval(registry_->sk_of(0), bytes_of("x"));
  out.value[5] ^= 1;
  EXPECT_FALSE(vrf_.verify(registry_->pk_of(0), bytes_of("x"), out));
}

TEST_F(FastVrfTest, TamperedProofRejected) {
  VrfOutput out = vrf_.eval(registry_->sk_of(0), bytes_of("x"));
  out.proof[5] ^= 1;
  EXPECT_FALSE(vrf_.verify(registry_->pk_of(0), bytes_of("x"), out));
}

TEST_F(FastVrfTest, UnregisteredKeyRejected) {
  Rng rng(5);
  VrfKeyPair rogue = vrf_.keygen(rng);  // never registered
  VrfOutput out = vrf_.eval(rogue.sk, bytes_of("x"));
  EXPECT_FALSE(vrf_.verify(rogue.pk, bytes_of("x"), out));
}

TEST_F(FastVrfTest, UniquenessForgedValueWithHonestProofRejected) {
  VrfOutput honest = vrf_.eval(registry_->sk_of(0), bytes_of("x"));
  VrfOutput forged{vrf_.eval(registry_->sk_of(0), bytes_of("y")).value,
                   honest.proof};
  EXPECT_FALSE(vrf_.verify(registry_->pk_of(0), bytes_of("x"), forged));
}

TEST_F(FastVrfTest, OutputsSpread) {
  std::set<std::uint8_t> first_bytes;
  for (int i = 0; i < 64; ++i)
    first_bytes.insert(vrf_.eval(registry_->sk_of(0), bytes_of_u64(i)).value[0]);
  EXPECT_GT(first_bytes.size(), 40u);
}

TEST(KeyRegistry, CreateForIsDeterministic) {
  auto a = KeyRegistry::create_for(4, 9);
  auto b = KeyRegistry::create_for(4, 9);
  EXPECT_EQ(a->pk_of(3), b->pk_of(3));
  EXPECT_EQ(a->sk_of(0), b->sk_of(0));
}

TEST(KeyRegistry, SeedChangesKeys) {
  auto a = KeyRegistry::create_for(4, 9);
  auto b = KeyRegistry::create_for(4, 10);
  EXPECT_NE(a->pk_of(0), b->pk_of(0));
}

TEST(KeyRegistry, ReverseLookup) {
  auto reg = KeyRegistry::create_for(4, 9);
  const Bytes* sk = reg->sk_for_pk(reg->pk_of(2));
  ASSERT_NE(sk, nullptr);
  EXPECT_EQ(*sk, reg->sk_of(2));
  EXPECT_EQ(reg->sk_for_pk(Bytes{1, 2, 3}), nullptr);
  // A prefix or an extension of a registered key is a different key.
  const Bytes& pk = reg->pk_of(2);
  EXPECT_EQ(reg->sk_for_pk(BytesView(pk).first(pk.size() - 1)), nullptr);
  Bytes longer = pk;
  longer.push_back(0);
  EXPECT_EQ(reg->sk_for_pk(longer), nullptr);
}

TEST(KeyRegistry, DuplicateIdThrows) {
  KeyRegistry reg;
  reg.register_keypair(0, Bytes{1}, Bytes{2});
  EXPECT_THROW(reg.register_keypair(0, Bytes{3}, Bytes{4}),
               PreconditionError);
}

TEST(KeyRegistry, UnknownIdThrows) {
  KeyRegistry reg;
  EXPECT_THROW(reg.sk_of(42), PreconditionError);
  EXPECT_FALSE(reg.has(42));
}

}  // namespace
}  // namespace coincidence::crypto
