// Unit tests for the ref-counted aligned Buffer and the copy-on-write
// BufferView: ownership, slicing, detach-on-shared-mutation, the buffer's
// one count, and the one-pass padded XOR delta builder.

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/bytes.h"

namespace lhrs {
namespace {

TEST(BufferTest, AllocateAlignedAndZeroed) {
  auto buf = Buffer::Allocate(100);
  ASSERT_NE(buf, nullptr);
  EXPECT_GE(buf->capacity(), 100u);
  EXPECT_EQ(buf->capacity() % Buffer::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf->data()) % Buffer::kAlignment,
            0u);
  for (size_t i = 0; i < buf->capacity(); ++i) {
    ASSERT_EQ(buf->data()[i], 0) << "byte " << i;
  }
}

TEST(BufferViewTest, DefaultIsEmpty) {
  BufferView v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.data(), nullptr);
  EXPECT_EQ(v.ToBytes(), Bytes{});
}

TEST(BufferViewTest, IngestsBytesWithOneCopy) {
  const Bytes src = {1, 2, 3, 4};
  BufferView v(src);
  EXPECT_EQ(v.ToBytes(), src);
  // The view owns its own aligned buffer, not the vector's storage.
  EXPECT_NE(v.data(), src.data());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.buffer()->data()) %
                Buffer::kAlignment,
            0u);
}

TEST(BufferViewTest, CopySharesTheBuffer) {
  BufferView a(Bytes{9, 8, 7});
  BufferView b = a;
  EXPECT_EQ(a.data(), b.data());  // Same underlying bytes, no copy.
  EXPECT_EQ(a, b);
}

TEST(BufferViewTest, ContentEqualityAcrossDistinctBuffers) {
  BufferView a(Bytes{1, 2, 3});
  BufferView b(Bytes{1, 2, 3});
  BufferView c(Bytes{1, 2, 4});
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(BufferViewTest, SliceSharesAndOffsets) {
  BufferView v(Bytes{0, 1, 2, 3, 4, 5});
  BufferView mid = v.Slice(2, 3);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.ToBytes(), (Bytes{2, 3, 4}));
  EXPECT_EQ(mid.data(), v.data() + 2);  // Shared storage.
  EXPECT_EQ(mid.buffer(), v.buffer());
}

TEST(BufferViewTest, MutableResizedInPlaceWhenSoleOwner) {
  BufferView v(Bytes{1, 2, 3});
  const uint8_t* before = v.data();
  uint8_t* p = v.MutableResized(3);
  EXPECT_EQ(p, before);  // Unique owner with capacity: no detach.
  p[0] = 42;
  EXPECT_EQ(v[0], 42);
}

TEST(BufferViewTest, MutationDetachesWhenShared) {
  BufferView a(Bytes{1, 2, 3});
  BufferView snapshot = a;
  uint8_t* p = a.MutableData();
  EXPECT_NE(p, snapshot.data());  // Copy-on-write: fresh buffer.
  p[0] = 99;
  // The snapshot still sees the original bytes.
  EXPECT_EQ(snapshot[0], 1);
  EXPECT_EQ(a[0], 99);
}

TEST(BufferViewTest, MutableResizedGrowsWithZeroFill) {
  BufferView v(Bytes{5, 6});
  uint8_t* p = v.MutableResized(5);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(p[0], 5);
  EXPECT_EQ(p[1], 6);
  EXPECT_EQ(p[2], 0);
  EXPECT_EQ(p[3], 0);
  EXPECT_EQ(p[4], 0);
}

TEST(BufferViewTest, MutableResizedShrinks) {
  BufferView v(Bytes{1, 2, 3, 4});
  v.MutableResized(2);
  EXPECT_EQ(v.ToBytes(), (Bytes{1, 2}));
}

TEST(BufferViewTest, FromString) {
  BufferView v = BufferView::FromString("ab");
  EXPECT_EQ(v.ToBytes(), (Bytes{'a', 'b'}));
}

TEST(MakeXorDeltaTest, EqualLengths) {
  BufferView d = MakeXorDelta(Bytes{0xF0, 0x0F}, Bytes{0xFF, 0xFF});
  EXPECT_EQ(d.ToBytes(), (Bytes{0x0F, 0xF0}));
}

TEST(MakeXorDeltaTest, FirstShorterPadsWithZero) {
  // a zero-extended: delta tail equals b's tail.
  BufferView d = MakeXorDelta(Bytes{0x01}, Bytes{0x03, 0xAA, 0xBB});
  EXPECT_EQ(d.ToBytes(), (Bytes{0x02, 0xAA, 0xBB}));
}

TEST(MakeXorDeltaTest, SecondShorterPadsWithZero) {
  BufferView d = MakeXorDelta(Bytes{0x03, 0xAA, 0xBB}, Bytes{0x01});
  EXPECT_EQ(d.ToBytes(), (Bytes{0x02, 0xAA, 0xBB}));
}

TEST(MakeXorDeltaTest, DeltaIsItsOwnInverse) {
  const Bytes old_value = {1, 2, 3, 4, 5};
  const Bytes new_value = {9, 9};
  BufferView delta = MakeXorDelta(old_value, new_value);
  // old XOR delta == new (padded); new XOR delta == old.
  Bytes check = old_value;
  XorAssignPadded(check, delta);
  Bytes padded_new = new_value;
  padded_new.resize(old_value.size(), 0);
  EXPECT_EQ(check, padded_new);
}

TEST(BufferCountTest, CopiesMovesSelfAssignmentAndSlicesShareOneCount) {
  BufferView a(Bytes{1, 2, 3, 4});
  EXPECT_EQ(a.buffer().use_count(), 1u);
  BufferView b = a;
  EXPECT_EQ(a.buffer().use_count(), 2u);
  BufferView c = std::move(b);  // A move hands the count over.
  EXPECT_EQ(a.buffer().use_count(), 2u);
  EXPECT_EQ(c.buffer(), a.buffer());
  BufferView& alias = c;
  c = alias;
  EXPECT_EQ(a.buffer().use_count(), 2u);
  c = std::move(alias);
  EXPECT_EQ(a.buffer().use_count(), 2u);
  EXPECT_EQ(c.ToBytes(), (Bytes{1, 2, 3, 4}));
  {
    const BufferView slice = a.Slice(1, 2);
    EXPECT_EQ(a.buffer().use_count(), 3u);
    EXPECT_EQ(slice.buffer(), a.buffer());
    BufferRef handle = slice.buffer();
    EXPECT_EQ(a.buffer().use_count(), 4u);
  }
  EXPECT_EQ(a.buffer().use_count(), 2u);
  c = BufferView();
  EXPECT_EQ(a.buffer().use_count(), 1u);
  EXPECT_EQ(BufferView().buffer().use_count(), 0u);
}

TEST(BufferCountTest, WritesInPlaceOnlyAtCountOne) {
  BufferView v(Bytes{7, 7, 7});
  const uint8_t* home = v.data();
  EXPECT_EQ(v.MutableData(), home);
  // A recovery dump is shared behind a shared_ptr, and a message on the
  // simulated wire holds its own copy of the view: either one makes a
  // write detach.
  auto dump = std::make_shared<const std::vector<BufferView>>(1, v);
  EXPECT_EQ(v.buffer().use_count(), 2u);
  uint8_t* p = v.MutableData();
  EXPECT_NE(p, home);
  p[0] = 1;
  EXPECT_EQ((*dump)[0].ToBytes(), (Bytes{7, 7, 7}));
  EXPECT_EQ(v.buffer().use_count(), 1u);
  EXPECT_EQ((*dump)[0].buffer().use_count(), 1u);

  struct Message {
    BufferView payload;
  };
  const uint8_t* detached = v.data();
  const Message in_flight{v};
  v.MutableResized(2)[1] = 9;
  EXPECT_NE(v.data(), detached);
  EXPECT_EQ(in_flight.payload.ToBytes(), (Bytes{1, 7, 7}));
  EXPECT_EQ(v.ToBytes(), (Bytes{1, 9}));
  EXPECT_EQ(v.MutableData(), v.data());  // Sole owner again.
}

TEST(BufferCountTest, BytesLiveUntilTheLastRelease) {
  // Under ASan a read of freed bytes fails the test, and the leak check
  // at exit fails it if the last release does not free them.
  std::vector<BufferView> views(4, BufferView(Bytes(5000, 0xAB)));
  BufferView slice = views[0].Slice(4000, 1000);
  views.clear();
  EXPECT_EQ(slice.buffer().use_count(), 1u);
  for (uint8_t byte : slice) ASSERT_EQ(byte, 0xAB);
  BufferRef arena = Buffer::Allocate(1 << 20);
  BufferView record(arena, 4096, 64);
  arena = BufferRef();
  EXPECT_EQ(record.buffer().use_count(), 1u);
  for (uint8_t byte : record) ASSERT_EQ(byte, 0);
}

TEST(BufferCountDeathTest, OffsetsAndSizesAreBelowFourGiB) {
  constexpr size_t k4G = size_t{1} << 32;
  EXPECT_DEATH((void)Buffer::Allocate(k4G), "buffer of 4294967296 bytes");
  EXPECT_DEATH((void)Buffer::AllocateUninitialized(k4G + 64), "buffer of");
  const BufferRef buffer = Buffer::Allocate(64);
  EXPECT_DEATH(BufferView(buffer, k4G, 0), "outside its buffer");
  EXPECT_DEATH(BufferView(buffer, 0, k4G), "outside its buffer");
  EXPECT_DEATH(BufferView(buffer, 32, 64), "outside its buffer");
  BufferView v(Bytes{1});
  EXPECT_DEATH(v.MutableResized(k4G), "buffer of");
}

TEST(BufferCountDeathTest, CountChangeOnAForeignThreadFails) {
#ifdef NDEBUG
  GTEST_SKIP() << "the owner thread is stamped and checked in Debug builds";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const BufferView v(Bytes{1, 2, 3});
  EXPECT_DEATH(
      {
        std::thread foreign([&v] { BufferView copy = v; });
        foreign.join();
      },
      "views must stay on their thread");
#endif
}

}  // namespace
}  // namespace lhrs
