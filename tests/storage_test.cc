// Unit tests for the storage substrates: RAM disk (brd/brd2 semantics),
// HDD/SSD latency decorators, and the MTD flash device with its
// mtdblock-style shim.
#include <gtest/gtest.h>

#include "storage/latency_disk.h"
#include "storage/mtd_device.h"
#include "storage/ram_disk.h"

namespace mcfs::storage {
namespace {

TEST(RamDiskTest, ReadWriteRoundTrip) {
  RamDisk disk("d0", 4096, nullptr);
  const Bytes payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(disk.Write(100, payload).ok());
  Bytes out(5);
  ASSERT_TRUE(disk.Read(100, out).ok());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().bytes_written, 5u);
}

TEST(RamDiskTest, OutOfRangeIsEio) {
  RamDisk disk("d0", 1024, nullptr);
  Bytes buf(64);
  EXPECT_EQ(disk.Read(1000, buf).error(), Errno::kEIO);
  EXPECT_EQ(disk.Write(1020, Bytes(10)).error(), Errno::kEIO);
  // Exactly at the boundary is fine.
  EXPECT_TRUE(disk.Write(1024 - 10, Bytes(10)).ok());
}

TEST(RamDiskTest, FreshDiskReadsZero) {
  RamDisk disk("d0", 512, nullptr);
  Bytes out(512, 0xff);
  ASSERT_TRUE(disk.Read(0, out).ok());
  for (std::uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(RamDiskTest, SnapshotRestoreRoundTrip) {
  RamDisk disk("d0", 2048, nullptr);
  ASSERT_TRUE(disk.Write(0, AsBytes("state-one")).ok());
  DeviceImage snapshot = disk.Capture();
  ASSERT_TRUE(disk.Write(0, AsBytes("state-two")).ok());
  ASSERT_TRUE(disk.Restore(snapshot).ok());
  Bytes out(9);
  ASSERT_TRUE(disk.Read(0, out).ok());
  EXPECT_EQ(AsString(out), "state-one");
}

TEST(RamDiskTest, RestoreRejectsWrongSize) {
  RamDisk disk("d0", 2048, nullptr);
  EXPECT_EQ(disk.Restore(DeviceImage::FromBytes(Bytes(100))).error(),
            Errno::kEINVAL);
}

TEST(RamDiskTest, ChargesSimTime) {
  SimClock clock;
  RamDisk disk("d0", 1 << 20, &clock);
  ASSERT_TRUE(disk.Write(0, Bytes(4096)).ok());
  const SimClock::Nanos after_write = clock.now();
  EXPECT_GT(after_write, 0u);
  Bytes out(4096);
  ASSERT_TRUE(disk.Read(0, out).ok());
  EXPECT_GT(clock.now(), after_write);
}

TEST(RamDiskTest, ErrorInjection) {
  RamDisk disk("d0", 1024, nullptr);
  disk.InjectIoErrors(2);
  Bytes buf(16);
  EXPECT_EQ(disk.Read(0, buf).error(), Errno::kEIO);
  EXPECT_EQ(disk.Write(0, buf).error(), Errno::kEIO);
  EXPECT_TRUE(disk.Read(0, buf).ok());  // injection exhausted
}

TEST(RamDiskFactoryTest, BrdEnforcesUniformSize) {
  // Stock brd: all RAM disks share one size; the paper patched it into
  // brd2 to lift that restriction (§4).
  RamDiskFactory brd = RamDiskFactory::Brd(256 * 1024, nullptr);
  EXPECT_TRUE(brd.Create("ram0", 256 * 1024).ok());
  EXPECT_EQ(brd.Create("ram1", 16 * 1024 * 1024).error(), Errno::kEINVAL);

  RamDiskFactory brd2 = RamDiskFactory::Brd2(nullptr);
  EXPECT_TRUE(brd2.Create("ram0", 256 * 1024).ok());
  EXPECT_TRUE(brd2.Create("ram1", 16 * 1024 * 1024).ok());
}

// ---------------------------------------------------------------------------
// Latency decorators

TEST(LatencyDiskTest, HddIsSlowerThanSsdIsSlowerThanRam) {
  // Scattered small sync writes: the access pattern the remount-heavy
  // checking workload produces (seeks dominate on the HDD).
  auto elapsed = [](const char* kind) {
    SimClock clock;
    auto ram = std::make_shared<RamDisk>("d", 64 << 20, &clock);
    BlockDevicePtr dev = ram;
    if (std::string(kind) == "hdd") {
      dev = std::make_shared<LatencyDisk>(ram, LatencyProfile::Hdd(),
                                          &clock);
    } else if (std::string(kind) == "ssd") {
      dev = std::make_shared<LatencyDisk>(ram, LatencyProfile::Ssd(),
                                          &clock);
    }
    Bytes buf(512);
    for (int i = 0; i < 50; ++i) {
      // Alternate between the device's ends to force long seeks.
      const std::uint64_t offset =
          (i % 2 == 0) ? static_cast<std::uint64_t>(i) * 4096
                       : (64ull << 20) - 4096 * (i + 1);
      EXPECT_TRUE(dev->Write(offset, buf).ok());
    }
    return clock.now();
  };
  const auto ram_time = elapsed("ram");
  const auto ssd_time = elapsed("ssd");
  const auto hdd_time = elapsed("hdd");
  EXPECT_GT(ssd_time, ram_time * 10);
  EXPECT_GT(hdd_time, ssd_time * 2);
}

TEST(LatencyDiskTest, SeekCostDependsOnDistance) {
  SimClock clock;
  auto ram = std::make_shared<RamDisk>("d", 64 << 20, nullptr);
  LatencyDisk hdd(ram, LatencyProfile::Hdd(), &clock);
  Bytes buf(512);

  // Sequential access near the current head position.
  ASSERT_TRUE(hdd.Read(0, buf).ok());
  const SimClock::Nanos t0 = clock.now();
  ASSERT_TRUE(hdd.Read(512, buf).ok());
  const SimClock::Nanos sequential = clock.now() - t0;

  // Full-stroke seek.
  const SimClock::Nanos t1 = clock.now();
  ASSERT_TRUE(hdd.Read((64 << 20) - 512, buf).ok());
  const SimClock::Nanos far_seek = clock.now() - t1;
  EXPECT_GT(far_seek, sequential * 3);
}

TEST(LatencyDiskTest, PassesDataThrough) {
  auto ram = std::make_shared<RamDisk>("d", 4096, nullptr);
  LatencyDisk ssd(ram, LatencyProfile::Ssd(), nullptr);
  ASSERT_TRUE(ssd.Write(10, AsBytes("hello")).ok());
  Bytes out(5);
  ASSERT_TRUE(ssd.Read(10, out).ok());
  EXPECT_EQ(AsString(out), "hello");
  EXPECT_EQ(ssd.Capture(), ram->Capture());
}

// ---------------------------------------------------------------------------
// MTD flash

TEST(MtdDeviceTest, EraseProgramsDiscipline) {
  MtdDevice mtd("mtd0", 64 * 1024, nullptr);
  // Fresh flash is erased: all 0xff.
  Bytes out(4);
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(out, Bytes(4, 0xff));

  // Programming clears bits.
  ASSERT_TRUE(mtd.Program(0, Bytes{0x0f, 0xf0}).ok());
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(out[0], 0x0f);
  EXPECT_EQ(out[1], 0xf0);

  // Re-programming can only clear further bits; setting bits fails.
  EXPECT_EQ(mtd.Program(0, Bytes{0xff}).error(), Errno::kEIO);
  EXPECT_TRUE(mtd.Program(0, Bytes{0x0e}).ok());  // 0x0f & 0x0e

  // Erase resets the whole block to 0xff.
  ASSERT_TRUE(mtd.EraseBlock(0).ok());
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(out, Bytes(4, 0xff));
  EXPECT_EQ(mtd.erase_count(0), 1u);
}

TEST(MtdDeviceTest, EraseBlockBounds) {
  MtdDevice mtd("mtd0", 64 * 1024, nullptr);  // 4 blocks of 16 KB
  EXPECT_EQ(mtd.erase_block_count(), 4u);
  EXPECT_TRUE(mtd.EraseBlock(3).ok());
  EXPECT_EQ(mtd.EraseBlock(4).error(), Errno::kEINVAL);
}

TEST(MtdBlockShimTest, WriteDoesEraseModifyProgram) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  MtdBlockShim shim(mtd);

  // Write arbitrary data twice to the same place: the shim must handle
  // the erase cycle transparently (a raw Program would fail).
  ASSERT_TRUE(shim.Write(100, AsBytes("first")).ok());
  ASSERT_TRUE(shim.Write(100, AsBytes("second")).ok());
  Bytes out(6);
  ASSERT_TRUE(shim.Read(100, out).ok());
  EXPECT_EQ(AsString(out), "second");
  EXPECT_GE(mtd->erase_count(0), 2u);
}

TEST(MtdBlockShimTest, WriteSpanningEraseBlocks) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  MtdBlockShim shim(mtd);
  const Bytes big(20 * 1024, 0x5a);  // crosses a 16 KB erase block
  ASSERT_TRUE(shim.Write(10 * 1024, big).ok());
  Bytes out(big.size());
  ASSERT_TRUE(shim.Read(10 * 1024, out).ok());
  EXPECT_EQ(out, big);
}

TEST(MtdDeviceTest, SnapshotRestore) {
  MtdDevice mtd("mtd0", 32 * 1024, nullptr);
  ASSERT_TRUE(mtd.Program(0, AsBytes("abc")).ok());
  DeviceImage snapshot = mtd.Capture();
  ASSERT_TRUE(mtd.EraseBlock(0).ok());
  ASSERT_TRUE(mtd.Restore(snapshot).ok());
  Bytes out(3);
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(AsString(out), "abc");
}

TEST(MtdDeviceTest, RestoreRejectsWrongSize) {
  MtdDevice mtd("mtd0", 32 * 1024, nullptr);
  EXPECT_EQ(mtd.Restore(DeviceImage(16 * 1024, 0xff)).error(),
            Errno::kEINVAL);
}

TEST(MtdDeviceTest, ChargesEraseLatency) {
  SimClock clock;
  MtdDevice mtd("mtd0", 32 * 1024, &clock);
  Bytes buf(16);
  ASSERT_TRUE(mtd.Read(0, buf).ok());
  const SimClock::Nanos read_cost = clock.now();
  ASSERT_TRUE(mtd.EraseBlock(0).ok());
  EXPECT_GT(clock.now() - read_cost, read_cost);  // erase >> read
}

}  // namespace
}  // namespace mcfs::storage
