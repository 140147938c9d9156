// Tests for parity scrubbing: detection and repair of silent parity
// corruption (bit rot, lost updates) by auditing parity against the data
// columns. The whole suite is parameterized over the parity code (RS and
// LRC): scrubbing is scheme-agnostic and must behave identically.

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/lhrs_file.h"

namespace lhrs {
namespace {

class ScrubTest : public ::testing::TestWithParam<const char*> {
 protected:
  LhrsFile::Options Opts(uint32_t m = 4, uint32_t k = 2) {
    LhrsFile::Options opts;
    opts.file.bucket_capacity = 10;
    opts.group_size = m;
    opts.policy.base_k = k;
    auto spec = parity::CodeSpec::Parse(GetParam());
    EXPECT_TRUE(spec.ok()) << spec.status();
    if (spec.ok()) opts.code = *spec;
    return opts;
  }
};

void Populate(LhrsFile& file, int n, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    (void)file.Insert(rng.Next64(), rng.RandomBytes(1 + rng.Uniform(32)));
  }
}

TEST_P(ScrubTest, CleanFileHasNoMismatches) {
  LhrsFile file(Opts());
  Populate(file, 200, 61);
  const auto report = file.Scrub();
  EXPECT_EQ(report.groups_scrubbed, file.group_count());
  EXPECT_GT(report.record_groups_checked, 0u);
  EXPECT_EQ(report.mismatched_parity_records, 0u);
  EXPECT_EQ(report.parity_columns_repaired, 0u);
}

TEST_P(ScrubTest, DetectsFlippedParityBits) {
  LhrsFile file(Opts());
  Populate(file, 150, 62);
  // Silent bit rot in one parity record of group 0, column 1.
  auto* bucket = file.parity_bucket(0, 1);
  ASSERT_GT(bucket->parity_record_count(), 0u);
  const Rank rank = bucket->ParityRanks().front();
  ASSERT_TRUE(bucket->FlipParityByteForTest(rank, 0, 0xFF));

  const auto report = file.Scrub(/*repair=*/false);
  EXPECT_EQ(report.mismatched_parity_records, 1u);
  EXPECT_EQ(report.parity_columns_repaired, 0u);  // Detection only.
  EXPECT_FALSE(file.VerifyParityInvariants().ok());
}

TEST_P(ScrubTest, DetectsCorruptedMetadata) {
  LhrsFile file(Opts());
  Populate(file, 150, 63);
  auto* bucket = file.parity_bucket(0, 0);
  const Rank rank = bucket->ParityRanks().front();
  const std::optional<ParityRecord> record = bucket->FindParityRecord(rank);
  ASSERT_TRUE(record.has_value());
  // Length drift.
  ASSERT_TRUE(bucket->SetLengthForTest(rank, 0, record->lengths[0] + 7));
  const auto report = file.Scrub();
  EXPECT_GE(report.mismatched_parity_records, 1u);
}

TEST_P(ScrubTest, RepairRestoresCorruptedColumns) {
  LhrsFile file(Opts());
  Populate(file, 200, 64);
  // Corrupt several records across two parity columns of group 0.
  for (uint32_t j : {0u, 1u}) {
    auto* bucket = file.parity_bucket(0, j);
    int corrupted = 0;
    for (const Rank rank : bucket->ParityRanks()) {
      const size_t size = bucket->FindParityRecord(rank)->parity.size();
      if (size != 0) {
        ASSERT_TRUE(bucket->FlipParityByteForTest(rank, size - 1, 0x5A));
        if (++corrupted == 3) break;
      }
    }
  }
  ASSERT_FALSE(file.VerifyParityInvariants().ok());

  const auto report = file.Scrub(/*repair=*/true);
  EXPECT_GE(report.mismatched_parity_records, 2u);
  EXPECT_EQ(report.parity_columns_repaired, 2u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "after repair";

  // Idempotence: a second scrub is clean.
  const auto again = file.Scrub();
  EXPECT_EQ(again.mismatched_parity_records, 0u);
}

TEST_P(ScrubTest, DetectsDroppedParityRecord) {
  LhrsFile file(Opts());
  Populate(file, 150, 65);
  auto* bucket = file.parity_bucket(0, 1);
  ASSERT_GT(bucket->parity_record_count(), 1u);
  // Simulate a lost record: blank one out via the test hook by zeroing its
  // content is not enough (keys remain); instead corrupt all its keys'
  // metadata so the audit flags it.
  const Rank rank = bucket->ParityRanks().back();
  const std::optional<ParityRecord> record = bucket->FindParityRecord(rank);
  for (uint32_t slot = 0; slot < record->keys.size(); ++slot) {
    const std::optional<Key>& key = record->keys[slot];
    if (key.has_value()) {
      ASSERT_TRUE(bucket->SetKeyForTest(rank, slot, *key ^ 1));  // Wrong keys.
    }
  }
  const auto report = file.Scrub(/*repair=*/true);
  EXPECT_GE(report.mismatched_parity_records, 1u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST_P(ScrubTest, RepairedFileStillRecoversFromFailures) {
  LhrsFile file(Opts());
  Rng rng(66);
  std::vector<Key> keys;
  for (int i = 0; i < 200; ++i) {
    const Key k = rng.Next64();
    if (file.Insert(k, rng.RandomBytes(24)).ok()) keys.push_back(k);
  }
  auto* bucket = file.parity_bucket(0, 0);
  ASSERT_TRUE(bucket->FlipParityByteForTest(bucket->ParityRanks().front(), 0,
                                            0x42));
  (void)file.Scrub(/*repair=*/true);

  // Buckets 0 and 2 sit in distinct lrc2 local groups, so the double
  // failure is recoverable under both the MDS RS code and the LRC.
  const NodeId d1 = file.CrashDataBucket(0);
  file.CrashDataBucket(2);
  file.DetectAndRecover(d1);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  for (Key k : keys) EXPECT_TRUE(file.Search(k).ok());
}

INSTANTIATE_TEST_SUITE_P(Codes, ScrubTest, ::testing::Values("rs", "lrc2"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace lhrs
