// Build goldens: one hash per (family, BuildSpec) over everything a build
// produces — parameter names, shapes and initial values, the mapping's
// index lists, and the logits of every head on a fixed input.  Covers every
// family MakeTaskModels (primary + topology) and MakeMixedCvFamilies return,
// so a refactor of the family builders that moves a single bit, slot or
// rng draw fails here with the family and spec named.  Logits depend on the
// GEMM micro-kernel (its ISA variants agree only to rounding, tensor/gemm.h),
// so the test pins the scalar one, which every build and CPU has.
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "models/zoo.h"
#include "obs/det_audit.h"
#include "tensor/gemm.h"

namespace mhbench::models {
namespace {

constexpr int kNumSpecs = 6;

// Full; width 0.5 and 0.25; rolling width 0.5 at offset 3; depth 0.5;
// full with a head at every exit.
std::array<BuildSpec, kNumSpecs> Specs() {
  std::array<BuildSpec, kNumSpecs> s{};
  s[1].width_ratio = 0.5;
  s[2].width_ratio = 0.25;
  s[3].width_ratio = 0.5;
  s[3].rolling = true;
  s[3].width_offset = 3;
  s[4].depth_ratio = 0.5;
  s[5].multi_head = true;
  return s;
}

void HashTensor(obs::DetHash& h, const Tensor& t) {
  h.UpdateU64(static_cast<std::uint64_t>(t.ndim()));
  for (int d = 0; d < t.ndim(); ++d) h.UpdateI64(t.dim(d));
  h.Update(t.data().data(), t.numel() * sizeof(Scalar));
}

// Token ids for sequence families, N(0, 1) features otherwise.
Tensor FixedInput(const ModelFamily& fam) {
  Rng rng(99);
  Shape shape = fam.sample_shape();
  shape.insert(shape.begin(), 3);
  if (shape.size() == 2) {
    Tensor ids(shape);
    for (auto& v : ids.data()) v = static_cast<Scalar>(rng.UniformInt(16));
    return ids;
  }
  return Tensor::Randn(shape, rng, 1.0f);
}

std::uint64_t BuildHash(const ModelFamily& fam, const BuildSpec& spec) {
  Rng init(7);
  BuiltModel built = fam.Build(spec, init);
  obs::DetHash h;
  std::vector<nn::NamedParam> params;
  built.net->CollectParams("", params);
  for (const auto& p : params) {
    h.UpdateString(p.name);
    HashTensor(h, p.param->value);
  }
  for (const ParamSlice& slice : built.mapping) {
    h.UpdateString(slice.name);
    h.UpdateU64(slice.index.size());
    for (const auto& dim : slice.index) {
      h.UpdateU64(dim.has_value() ? 1 : 0);
      if (!dim) continue;
      h.UpdateU64(dim->size());
      for (int i : *dim) h.UpdateI64(i);
    }
  }
  const auto out =
      built.trunk().InferHeads(FixedInput(fam), nn::NormStats::kBatch);
  for (const Tensor& logits : out.logits) HashTensor(h, logits);
  return h.value();
}

struct Golden {
  const char* family;
  std::array<std::uint64_t, kNumSpecs> hashes;
};

// Generated from the family builders before they were merged into one
// trunk builder; every family must still build to exactly these bits.
const Golden kGoldens[] = {
    {"cifar10/primary",
     {0xf3155e0bd50dc196ULL, 0xfa3490c56c8b4f98ULL,
      0x3fc5dbb52803497dULL, 0xf490add99848b9e4ULL,
      0x43f562d82f06326fULL, 0x2f7a19d212306f06ULL}},
    {"cifar10/topology0",
     {0xca0ec047203a6b14ULL, 0xdb941176e746df50ULL,
      0x671393d38f64bd36ULL, 0x6082d5d7e4d78cbcULL,
      0xec21349a4167e0e7ULL, 0x70c48598d11d0491ULL}},
    {"cifar10/topology1",
     {0xf3155e0bd50dc196ULL, 0xfa3490c56c8b4f98ULL,
      0x3fc5dbb52803497dULL, 0xf490add99848b9e4ULL,
      0x43f562d82f06326fULL, 0x2f7a19d212306f06ULL}},
    {"cifar10/topology2",
     {0xc2208f4567fd1a0eULL, 0x275285d03e98f974ULL,
      0xe884f0d48318aaa2ULL, 0xf66f296db44e7d42ULL,
      0x14a01fcd780c2f19ULL, 0x97128a78e55eccb0ULL}},
    {"cifar100/primary",
     {0xc4faaf464339fd07ULL, 0x9f0d34317ff9448aULL,
      0xcc6b147bdbf099f6ULL, 0xbeb75223c492b3aeULL,
      0xf25d031b4ff8e78dULL, 0xf58b9a42bb66b767ULL}},
    {"cifar100/topology0",
     {0x04de90d86929afdaULL, 0x9f75d7a3f82f98a5ULL,
      0x67c33bee415031a6ULL, 0xe4bdde7c579ada69ULL,
      0x69501a1e8539ae3aULL, 0x0decfe23d3020196ULL}},
    {"cifar100/topology1",
     {0x3a6a8a3330e5b290ULL, 0xdb841a26f677306dULL,
      0xaafcadd7bb96ad4dULL, 0x0f39c3ef98a2c9c9ULL,
      0xf25d031b4ff8e78dULL, 0x1171b77e211fc94eULL}},
    {"cifar100/topology2",
     {0xc4faaf464339fd07ULL, 0x9f0d34317ff9448aULL,
      0xcc6b147bdbf099f6ULL, 0xbeb75223c492b3aeULL,
      0xf25d031b4ff8e78dULL, 0xf58b9a42bb66b767ULL}},
    {"cifar100/topology3",
     {0xb1ad5019027b076eULL, 0x3156e731ade35d09ULL,
      0x3cbcc944e8eb4731ULL, 0x2bfb3ae257489137ULL,
      0x25c34100497a3b27ULL, 0x10c7ee7d6f160a70ULL}},
    {"agnews/primary",
     {0x10aa2456b0b9feecULL, 0x91d5130ff349f78fULL,
      0x9b1db28361a8cc16ULL, 0x8c186a2cad91c8afULL,
      0x00e97334466ff7d0ULL, 0x4d5998e3e96aa61eULL}},
    {"agnews/topology0",
     {0x00e97334466ff7d0ULL, 0xb20a2b4a9c3be3d8ULL,
      0xd3e829ad226fb9b0ULL, 0xc26b788f69aaa098ULL,
      0x8a392040596a96adULL, 0x76a5fcdc5954e9adULL}},
    {"agnews/topology1",
     {0x10aa2456b0b9feecULL, 0x91d5130ff349f78fULL,
      0x9b1db28361a8cc16ULL, 0x8c186a2cad91c8afULL,
      0x00e97334466ff7d0ULL, 0x4d5998e3e96aa61eULL}},
    {"stackoverflow/primary",
     {0x085a929ec4ba21b6ULL, 0xee7817f0a0724712ULL,
      0xca28a50642ffc12bULL, 0xdeef23f0f0758632ULL,
      0x240592e41001b6ecULL, 0xd244360ac20fbe68ULL}},
    {"stackoverflow/topology0",
     {0x085a929ec4ba21b6ULL, 0xee7817f0a0724712ULL,
      0xca28a50642ffc12bULL, 0xdeef23f0f0758632ULL,
      0x240592e41001b6ecULL, 0xd244360ac20fbe68ULL}},
    {"stackoverflow/topology1",
     {0x02326251ddb6180dULL, 0x77256c4d9e420a40ULL,
      0x25cea253a0182879ULL, 0xcfc1aa42c2f21c80ULL,
      0xf90fca7b2eaf056dULL, 0xfefb726b936d5af3ULL}},
    {"stackoverflow/topology2",
     {0xb3d5c0ef98bf3f57ULL, 0x89c5f0951e41f7d8ULL,
      0x595a1ed39a604f0dULL, 0x7f27f14c3f3232d8ULL,
      0x6454aac0238a3d8bULL, 0x6ef9c01b6fbf0ab5ULL}},
    {"harbox/primary",
     {0xff47fa2d559b52eeULL, 0x4c002a94c84f54e8ULL,
      0x62db53bef03ddb23ULL, 0xb06eb9b7b57c0e04ULL,
      0x342305625aa10b50ULL, 0x4f174b2014607c6dULL}},
    {"harbox/topology0",
     {0x0ad94e3c6fb0344eULL, 0x6006f4efd713a5d7ULL,
      0x621c2bb39f519373ULL, 0xf75d0716a1b433c3ULL,
      0x7280af14bb2f9764ULL, 0x56aa8b4c42b98f2aULL}},
    {"harbox/topology1",
     {0xff47fa2d559b52eeULL, 0x4c002a94c84f54e8ULL,
      0x62db53bef03ddb23ULL, 0xb06eb9b7b57c0e04ULL,
      0x342305625aa10b50ULL, 0x4f174b2014607c6dULL}},
    {"harbox/topology2",
     {0x99e4845e2768a575ULL, 0x58cf68c58407b6b0ULL,
      0xf4121b89fc69d27bULL, 0xa662efae7eed6b8eULL,
      0xdfe47f76dae8da84ULL, 0x2633bfceb512c84aULL}},
    {"ucihar/primary",
     {0xf94875cfb4d74a1cULL, 0xff8d62f5dc4c6abaULL,
      0x552d7ac7bc6bac28ULL, 0xca2447866c9d2b1eULL,
      0x96afbdd93f727bd3ULL, 0x188b3a39c905b522ULL}},
    {"ucihar/topology0",
     {0xdc2c99b8fa74d717ULL, 0x81cd1202d02fde2bULL,
      0xace2b96b5870900dULL, 0x0e185a9d9374eaafULL,
      0x0cf3f5641479b397ULL, 0x809f648833800bc6ULL}},
    {"ucihar/topology1",
     {0xf94875cfb4d74a1cULL, 0xff8d62f5dc4c6abaULL,
      0x552d7ac7bc6bac28ULL, 0xca2447866c9d2b1eULL,
      0x96afbdd93f727bd3ULL, 0x188b3a39c905b522ULL}},
    {"ucihar/topology2",
     {0xa21ec9f4ae60ab1cULL, 0x8983540c9dcc5130ULL,
      0xbf386b6c8cd10f91ULL, 0x29b4dff7669bbc26ULL,
      0xbf02788393cabe7cULL, 0xc02b9509b665674bULL}},
    {"mixed-cv/0",
     {0x147678471106b7faULL, 0xbaef9db1c978a34dULL,
      0x2db32127cdcf08a6ULL, 0x150e3d92fef81f8dULL,
      0xed6edfc9136e8da5ULL, 0x57c20e11a850a3bcULL}},
    {"mixed-cv/1",
     {0xca0ec047203a6b14ULL, 0xdb941176e746df50ULL,
      0x671393d38f64bd36ULL, 0x6082d5d7e4d78cbcULL,
      0xec21349a4167e0e7ULL, 0x70c48598d11d0491ULL}},
    {"mixed-cv/2",
     {0x9f0e040ffd1ada52ULL, 0xc2dd76162ea3f47aULL,
      0x990f6feed9052a9dULL, 0x61fa3566ace29be0ULL,
      0x84a02ab56f8ea9cbULL, 0x7235540ab56c3762ULL}},
    {"mixed-cv/3",
     {0xd5c9ba2d04aa9dd8ULL, 0xca536b9d0cf2dca1ULL,
      0xca52b893f5c1e5f8ULL, 0x39e6302c4b0b8bf5ULL,
      0xe2c223443eaf55a9ULL, 0xbdae621ee6848cb0ULL}},
};

std::vector<std::pair<std::string, FamilyPtr>> AllFamilies() {
  std::vector<std::pair<std::string, FamilyPtr>> out;
  for (const std::string& task : AllTaskNames()) {
    const TaskModels tm = MakeTaskModels(task);
    out.emplace_back(task + "/primary", tm.primary);
    for (std::size_t i = 0; i < tm.topology.size(); ++i) {
      out.emplace_back(task + "/topology" + std::to_string(i),
                       tm.topology[i]);
    }
  }
  const auto mixed = MakeMixedCvFamilies(10);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    out.emplace_back("mixed-cv/" + std::to_string(i), mixed[i]);
  }
  return out;
}

TEST(BuildGoldenTest, EveryFamilyBuildsItsPinnedBits) {
  const auto families = AllFamilies();
  ASSERT_EQ(families.size(), std::size(kGoldens));
  const kernels::Isa saved_isa = kernels::CurrentIsa();
  ASSERT_TRUE(kernels::SetIsa(kernels::Isa::kScalar));
  const auto specs = Specs();
  std::string actual;  // the table as this build produces it
  for (std::size_t f = 0; f < families.size(); ++f) {
    const auto& [key, fam] = families[f];
    EXPECT_EQ(key, kGoldens[f].family);
    char line[64];
    actual += "    {\"" + key + "\",\n     {";
    for (int s = 0; s < kNumSpecs; ++s) {
      const std::uint64_t got = BuildHash(*fam, specs[static_cast<std::size_t>(s)]);
      EXPECT_EQ(got, kGoldens[f].hashes[static_cast<std::size_t>(s)])
          << key << " (" << fam->name() << ") spec " << s;
      std::snprintf(line, sizeof(line), "0x%016llxULL%s",
                    static_cast<unsigned long long>(got),
                    s + 1 < kNumSpecs ? (s % 2 == 1 ? ",\n      " : ", ") : "");
      actual += line;
    }
    actual += "}},\n";
  }
  ASSERT_TRUE(kernels::SetIsa(saved_isa));
  if (HasFailure()) std::printf("actual table:\n%s", actual.c_str());
}

}  // namespace
}  // namespace mhbench::models
