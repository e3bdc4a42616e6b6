// Serialization failure modes of the v3 section file: OpenMapped must return
// nullptr — never crash, never return a half-initialized index — on
// truncated files, corrupted headers/directories, trailing bytes, and a
// weighted string whose length does not match the saved index. The
// publish-protocol cases cover the write side (staging, stale-temp sweep,
// ENOSPC at close), and the crash-injection suite at the bottom SIGKILLs
// real saves mid-flight and requires the atomic publish protocol to keep
// the published path loadable.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "test_helpers.hpp"
#include "usi/core/index_format.hpp"
#include "usi/core/usi_index.hpp"
#include "usi/util/binary_io.hpp"
#include "usi/util/mapped_file.hpp"

namespace usi {
namespace {

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// v3 (mapped) failure modes: OpenMapped must return nullptr — never crash,
/// never serve a half-validated mapping — on truncated or extended files,
/// corrupted headers and section directories, and payload corruption under
/// deep verification.
class SerializationFailureV3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = testing::RandomWeighted(300, 4, 77);
    UsiOptions options;
    options.k = 30;
    index_ = std::make_unique<UsiIndex>(ws_, options);
    path_ = ::testing::TempDir() + "usi_serialization_v3_good.bin";
    mutated_path_ = ::testing::TempDir() + "usi_serialization_v3_bad.bin";
    ASSERT_TRUE(index_->SaveToFile(path_, IndexFileFormat::kV3Mapped));
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), sizeof(format_v3::FileHeader));
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutated_path_.c_str());
  }

  /// Re-seals a mutated header so field-validation paths BEHIND the
  /// checksum can be exercised individually.
  static void ResealHeaderChecksum(std::vector<char>* bytes) {
    const std::size_t checksum_offset =
        offsetof(format_v3::FileHeader, header_checksum);
    const u64 checksum = Checksum64(bytes->data(), checksum_offset);
    std::memcpy(bytes->data() + checksum_offset, &checksum, sizeof(checksum));
  }

  WeightedString ws_;
  std::unique_ptr<UsiIndex> index_;
  std::string path_;
  std::string mutated_path_;
  std::vector<char> bytes_;
};

TEST_F(SerializationFailureV3Test, IntactFileOpensAndAnswers) {
  // The intact image opens — shallow and under deep verification — and
  // answers like the index it was saved from.
  std::unique_ptr<UsiIndex> opened = UsiIndex::OpenMapped(ws_, path_);
  ASSERT_NE(opened, nullptr);
  EXPECT_TRUE(opened->IsMapped());
  UsiIndex::OpenOptions deep;
  deep.deep_verify = true;
  EXPECT_NE(UsiIndex::OpenMapped(ws_, path_, deep), nullptr);
  for (index_t i = 0; i + 4 <= ws_.size(); i += 7) {
    const Text pattern = ws_.Fragment(i, 4);
    EXPECT_EQ(opened->Query(pattern).occurrences,
              index_->Query(pattern).occurrences);
    EXPECT_EQ(opened->Query(pattern).utility, index_->Query(pattern).utility);
  }
}

TEST_F(SerializationFailureV3Test, MissingFileReturnsNull) {
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, ::testing::TempDir() +
                                          "usi_no_such_index.bin"),
            nullptr);
}

TEST_F(SerializationFailureV3Test, EveryTruncationReturnsNull) {
  // Every proper prefix must be rejected: cuts land inside the header, the
  // padding, and every section — including exactly on each section
  // boundary, where all earlier sections are complete.
  for (std::size_t cut = 0; cut < bytes_.size(); ++cut) {
    WriteAll(mutated_path_,
             std::vector<char>(bytes_.begin(),
                               bytes_.begin() + static_cast<std::ptrdiff_t>(cut)));
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << "truncation at byte " << cut << " of " << bytes_.size();
  }
}

TEST_F(SerializationFailureV3Test, ExtendedFileReturnsNull) {
  // file_bytes pins the exact size: a complete image with bytes appended is
  // not this index's file any more.
  for (const std::size_t extra : {std::size_t{1}, std::size_t{4096}}) {
    std::vector<char> mutated = bytes_;
    mutated.insert(mutated.end(), extra, static_cast<char>(0xCD));
    WriteAll(mutated_path_, mutated);
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << extra << " trailing bytes";
  }
}

TEST_F(SerializationFailureV3Test, EveryHeaderByteFlipReturnsNull) {
  // The header checksum covers every byte before it — magic, scalars, and
  // the whole section directory (offsets, lengths, section checksums). A
  // flip anywhere must reject the file in O(1). Bytes that flip magic or
  // version fail those checks first; everything else falls to the checksum.
  const std::size_t checksum_offset =
      offsetof(format_v3::FileHeader, header_checksum);
  for (std::size_t byte = 0; byte < sizeof(format_v3::FileHeader); ++byte) {
    std::vector<char> mutated = bytes_;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x40);
    WriteAll(mutated_path_, mutated);
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << "header byte " << byte
        << (byte >= checksum_offset ? " (checksum field)" : "");
  }
}

TEST_F(SerializationFailureV3Test, ResealedBadDirectoryReturnsNull) {
  // Field validation must hold even when an attacker (or a very unlucky
  // disk) produces a consistent checksum: corrupt one directory offset and
  // re-seal the header — the layout checks, not the checksum, reject it.
  format_v3::FileHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));
  std::vector<char> mutated = bytes_;
  format_v3::FileHeader bad = header;
  bad.sections[1].offset += format_v3::kSectionAlign;
  std::memcpy(mutated.data(), &bad, sizeof(bad));
  ResealHeaderChecksum(&mutated);
  WriteAll(mutated_path_, mutated);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr);

  // A capacity that is not a power of two, with lengths forged to match,
  // must also fail — the table invariants are load checks, not asserts.
  mutated = bytes_;
  bad = header;
  bad.table_capacity = header.table_capacity + 1;
  std::memcpy(mutated.data(), &bad, sizeof(bad));
  ResealHeaderChecksum(&mutated);
  WriteAll(mutated_path_, mutated);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr);

  // A slot layout from a different build (slot_bytes mismatch) is a host
  // mismatch, not a checksum problem.
  mutated = bytes_;
  bad = header;
  bad.slot_bytes = header.slot_bytes + 8;
  std::memcpy(mutated.data(), &bad, sizeof(bad));
  ResealHeaderChecksum(&mutated);
  WriteAll(mutated_path_, mutated);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr);
}

TEST_F(SerializationFailureV3Test, ResealedBadScalarsReturnNull) {
  // The scalar range checks sit behind the header checksum, so only a
  // re-sealed header reaches them. Each must refuse the file as corrupt
  // rather than carry the value into serving.
  format_v3::FileHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));
  const auto expect_corrupt = [&](const format_v3::FileHeader& bad,
                                  const char* what) {
    std::vector<char> mutated = bytes_;
    std::memcpy(mutated.data(), &bad, sizeof(bad));
    ResealHeaderChecksum(&mutated);
    WriteAll(mutated_path_, mutated);
    LoadError error;
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_, {}, &error), nullptr)
        << what;
    EXPECT_EQ(error.code, LoadErrorCode::kCorrupt) << what;
  };
  // An out-of-range utility kind would silently answer U(P) = 0.
  for (const u8 bad_kind : {u8{4}, u8{0x7F}, u8{0xFF}}) {
    format_v3::FileHeader bad = header;
    bad.kind = bad_kind;
    expect_corrupt(bad, "utility kind byte");
  }
  // An out-of-range miner would make the index misreport its Name().
  for (const u8 bad_miner : {u8{2}, u8{0x7F}, u8{0xFF}}) {
    format_v3::FileHeader bad = header;
    bad.miner = bad_miner;
    expect_corrupt(bad, "miner byte");
  }
  // FromBase aborts on an out-of-range Karp-Rabin base, so an unchecked
  // field would crash instead of refusing. Both sides of the valid range:
  // all-0xFF (>= the Mersenne prime) and zero (< 257).
  for (const u64 bad_base : {~u64{0}, u64{0}}) {
    format_v3::FileHeader bad = header;
    bad.base = bad_base;
    expect_corrupt(bad, "Karp-Rabin base");
  }
}

TEST_F(SerializationFailureV3Test, MismatchedWeightedStringReturnsNull) {
  const WeightedString shorter = ws_.Prefix(ws_.size() - 1);
  EXPECT_EQ(UsiIndex::OpenMapped(shorter, path_), nullptr);
  const WeightedString longer = testing::RandomWeighted(ws_.size() + 1, 4, 7);
  EXPECT_EQ(UsiIndex::OpenMapped(longer, path_), nullptr);
  const WeightedString empty;
  EXPECT_EQ(UsiIndex::OpenMapped(empty, path_), nullptr);
}

TEST_F(SerializationFailureV3Test, PayloadCorruptionCaughtByDeepVerify) {
  format_v3::FileHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));

  // Flip one byte in the middle of each section payload. The shallow open
  // accepts it (payloads are not read at open — that is the near-zero-open
  // contract; crash safety comes from atomic publish, not checksums), but
  // deep_verify must reject every one.
  UsiIndex::OpenOptions deep;
  deep.deep_verify = true;
  for (std::size_t s = 0; s < format_v3::kNumSections; ++s) {
    std::vector<char> mutated = bytes_;
    const std::size_t target =
        header.sections[s].offset + header.sections[s].length / 2;
    mutated[target] = static_cast<char>(mutated[target] ^ 0x10);
    WriteAll(mutated_path_, mutated);
    EXPECT_NE(UsiIndex::OpenMapped(ws_, mutated_path_), nullptr)
        << "shallow open, section " << s;
    EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_, deep), nullptr)
        << "deep verify, section " << s;
  }

  // An out-of-range SA position whose section checksum has been re-forged
  // is caught by deep_verify's range scan, the last line of defense before
  // queries would read PSW out of bounds.
  std::vector<char> mutated = bytes_;
  const u32 bad_pos = static_cast<u32>(ws_.size());
  std::memcpy(mutated.data() + header.sections[0].offset, &bad_pos,
              sizeof(bad_pos));
  format_v3::FileHeader bad = header;
  bad.sections[0].checksum = Checksum64(
      mutated.data() + header.sections[0].offset, header.sections[0].length);
  std::memcpy(mutated.data(), &bad, sizeof(bad));
  ResealHeaderChecksum(&mutated);
  WriteAll(mutated_path_, mutated);
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, mutated_path_, deep), nullptr);
}

TEST_F(SerializationFailureV3Test, SaveToUnwritablePathReturnsFalse) {
  // The staging sibling cannot even be created; the failure must be
  // reported, and no destination file appear.
  const std::string bad = "/nonexistent-usi-dir/index.bin";
  EXPECT_FALSE(index_->SaveToFile(bad));
  EXPECT_EQ(UsiIndex::OpenMapped(ws_, bad), nullptr);
}

TEST_F(SerializationFailureV3Test, SaveLeavesNoStagingSibling) {
  // A successful save must fully retire its `path.tmp.<pid>` staging file.
  ASSERT_TRUE(index_->SaveToFile(path_));
  EXPECT_EQ(RemoveStaleTemps(path_), 0);
  EXPECT_EQ(ReadAll(path_), bytes_) << "re-save must reproduce the bytes";
}

TEST_F(SerializationFailureV3Test, StaleTempRecoverySweep) {
  // A crashed writer leaves only `path.tmp.<pid>` siblings; the published
  // file still opens, and RemoveStaleTemps clears exactly the leftovers.
  const std::string stale1 = path_ + ".tmp.12345";
  const std::string stale2 = path_ + ".tmp.99999";
  WriteAll(stale1, std::vector<char>(100, static_cast<char>(0x00)));
  WriteAll(stale2, std::vector<char>(bytes_.begin(), bytes_.begin() + 20));
  EXPECT_NE(UsiIndex::OpenMapped(ws_, path_), nullptr);
  EXPECT_EQ(RemoveStaleTemps(path_), 2);
  EXPECT_EQ(RemoveStaleTemps(path_), 0);
  std::ifstream gone1(stale1), gone2(stale2);
  EXPECT_FALSE(gone1.good());
  EXPECT_FALSE(gone2.good());
  // The published file itself is never touched by the sweep.
  EXPECT_NE(UsiIndex::OpenMapped(ws_, path_), nullptr);
}

TEST_F(SerializationFailureV3Test, WriterCloseReportsEnospc) {
  // stdio buffers writes, so an out-of-space condition commonly surfaces
  // only at the final flush — exactly what Close() exists to observe.
  // /dev/full fails every flush with ENOSPC; skip where it is absent.
  if (!std::ofstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  BinaryWriter writer("/dev/full");
  ASSERT_TRUE(writer.ok());
  const std::vector<char> payload(256, 'x');
  writer.WriteRaw(payload.data(), payload.size());
  EXPECT_FALSE(writer.Close());
  EXPECT_FALSE(writer.ok());
}

/// Crash injection: SIGKILL a child process mid-save, at shifting points of
/// the write/publish window, and require the published path to always hold
/// a loadable image — the atomic-publish invariant, end to end.
class CrashInjectionTest : public ::testing::TestWithParam<IndexFileFormat> {};

TEST_P(CrashInjectionTest, KilledSaveNeverCorruptsPublishedFile) {
  const IndexFileFormat format = GetParam();
  const WeightedString ws = testing::RandomWeighted(2000, 4, 13);
  UsiOptions options;
  options.k = 100;
  const UsiIndex index(ws, options);
  const std::string path =
      ::testing::TempDir() + "usi_crash_injection_v3.bin";
  std::remove(path.c_str());

  // Establish a good generation first: every post-crash check below then
  // asserts the strong form of the invariant (the path always loads, not
  // merely "absent or loads").
  ASSERT_TRUE(index.SaveToFile(path, format));
  ASSERT_NE(UsiIndex::OpenMapped(ws, path), nullptr);

  // Kill points sweep the save duration: early kills land mid-staging,
  // late ones straddle fsync/rename. The child re-saves in a tight loop so
  // any sleep lands inside SOME save, whatever this machine's speed.
  for (int round = 0; round < 10; ++round) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      for (;;) {
        index.SaveToFile(path, format);  // Loops until killed.
      }
    }
    ::usleep(static_cast<useconds_t>(200 + round * 700));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    const std::unique_ptr<UsiIndex> survivor = UsiIndex::OpenMapped(ws, path);
    ASSERT_NE(survivor, nullptr) << "corrupt image after kill round " << round;
    const Text pattern = ws.Fragment(7, 5);
    EXPECT_EQ(survivor->Query(pattern).occurrences,
              index.Query(pattern).occurrences);
    // A killed child may leave its own staging sibling; that is the
    // documented crash residue, swept at startup, never the published file.
    RemoveStaleTemps(path);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Formats, CrashInjectionTest,
                         ::testing::Values(IndexFileFormat::kV3Mapped));

}  // namespace
}  // namespace usi
