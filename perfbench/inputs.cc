#include "inputs.h"

#include <cstdio>

#include "bench/workloads.h"
#include "src/support/rng.h"

namespace perfbench {

using confllvm::BuildPreset;
using confllvm::Rng;
using confllvm::Session;
namespace wl = confllvm::workloads;

namespace {

constexpr int kNginxRequests = 192;
constexpr int kNginxFileBytes = 4096;
constexpr uint64_t kLdapEntries = 6000;
constexpr uint64_t kLdapQueries = 6000;
constexpr uint64_t kLdapMissQueries = 600;

}  // namespace

const BuildPreset kGuestPresets[3] = {BuildPreset::kBase, BuildPreset::kOurMpx,
                                      BuildPreset::kOurSeg};

std::vector<GuestInput> GuestInputs() {
  std::vector<GuestInput> in;
  for (int k = 0; k < wl::kNumSpecKernels; ++k) {
    GuestInput g;
    g.name = wl::kSpecKernels[k].name;
    g.source = wl::kSpecKernels[k].source;
    g.fn = "main";
    g.is_spec = true;
    in.push_back(std::move(g));
  }
  GuestInput nginx;
  nginx.name = "nginx";
  nginx.source = wl::kNginx;
  nginx.fn = "server_run";
  nginx.args = {kNginxRequests};
  nginx.setup = [](Session* s) {
    s->tlib->AddFile("f", std::string(kNginxFileBytes, 'x'));
    for (int i = 0; i < kNginxRequests; ++i) {
      s->tlib->PushRx(0, "GET f\n");
    }
    return s->vm->Call("server_init", {}).ok;
  };
  in.push_back(std::move(nginx));
  auto populate = [](Session* s) {
    return s->vm->Call("ldap_populate", {kLdapEntries}).ok;
  };
  GuestInput ldap;
  ldap.name = "ldap";
  ldap.source = wl::kLdap;
  ldap.fn = "ldap_run";
  ldap.args = {kLdapQueries, 1};
  ldap.setup = populate;
  in.push_back(std::move(ldap));
  GuestInput miss;
  miss.name = "ldap-miss";
  miss.source = wl::kLdap;
  miss.fn = "ldap_run";
  miss.args = {kLdapMissQueries, 0};
  miss.setup = populate;
  in.push_back(std::move(miss));
  return in;
}

std::vector<NamedSource> SweepSources() {
  std::vector<NamedSource> out;
  for (int k = 0; k < wl::kNumSpecKernels; ++k) {
    out.push_back({wl::kSpecKernels[k].name, wl::kSpecKernels[k].source});
  }
  out.push_back({"nginx", wl::kNginx});
  out.push_back({"ldap", wl::kLdap});
  out.push_back({"privado", wl::kPrivado});
  out.push_back({"merkle", wl::kMerkle});
  for (int k = 0; k < wl::kNumServeKernels; ++k) {
    out.push_back({std::string("serve-") + wl::kServeKernels[k].name,
                   wl::kServeKernels[k].source});
  }
  return out;
}

// Module i exports a public mixer f<i> and a private accumulator p<i>
// (private in, private out: the qualifier contract every import edge
// carries). Both call every imported module's pair, so the import DAG is
// also the call graph; main() in the last module calls its imports.
MultiModule MakeMultiModule(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6d6dull);
  constexpr int k = 6;  // modules; the seed draws the DAG and the bodies
  MultiModule mm;
  std::vector<std::vector<int>> imports(k);
  for (int i = 1; i < k; ++i) {
    imports[i].push_back(i - 1);  // keeps the DAG connected
    for (int j = 0; j + 1 < i; ++j) {
      if (rng.Next() % 3 == 0) {
        imports[i].push_back(j);
      }
    }
  }
  for (int i = 0; i < k; ++i) {
    const uint64_t c1 = 3 + rng.Next() % 29;
    const uint64_t c2 = 1 + rng.Next() % 997;
    const uint64_t loop = 4 + rng.Next() % 12;
    const uint64_t c3 = 2 + rng.Next() % 13;
    std::string body;
    char buf[512];
    snprintf(buf, sizeof buf,
             "int f%d(int x) {\n"
             "  int acc = x * %llu + %llu;\n",
             i, static_cast<unsigned long long>(c1),
             static_cast<unsigned long long>(c2));
    body += buf;
    for (const int j : imports[i]) {
      snprintf(buf, sizeof buf, "  acc = acc + f%d(acc %% 97);\n", j);
      body += buf;
    }
    snprintf(buf, sizeof buf,
             "  for (int r = 0; r < %llu; r = r + 1) {\n"
             "    acc = (acc * 31 + r) %% 1000003;\n"
             "  }\n"
             "  return acc;\n"
             "}\n"
             "private int p%d(private int s, int x) {\n"
             "  private int v = s + x * %llu;\n",
             static_cast<unsigned long long>(loop), i,
             static_cast<unsigned long long>(c3));
    body += buf;
    for (const int j : imports[i]) {
      snprintf(buf, sizeof buf, "  v = v + p%d(v %% 1009, x + %d);\n", j, j);
      body += buf;
    }
    body += "  return v % 1000003;\n}\n";
    if (i == k - 1) {
      body +=
          "int main() {\n"
          "  private int secret = 41;\n"
          "  int total = 0;\n";
      for (const int j : imports[i]) {
        snprintf(buf, sizeof buf,
                 "  total = total + f%d(%d);\n"
                 "  secret = secret + p%d(secret, %d);\n",
                 j, j + 1, j, j + 2);
        body += buf;
      }
      snprintf(buf, sizeof buf,
               "  secret = p%d(secret, 5);\n"
               "  return (total + f%d(total %% 101)) %% 1000003;\n"
               "}\n",
               i, i);
      body += buf;
    }
    std::string header;
    for (const int j : imports[i]) {
      header += "import \"m" + std::to_string(j) + "\";\n";
    }
    mm.modules.push_back({"m" + std::to_string(i), header + body});
    mm.mono += body;
  }
  return mm;
}

std::string ServeEdit(int k, uint64_t value) {
  std::string s = wl::kServeKernels[k].source;
  const size_t pos = s.find("990001");
  if (pos != std::string::npos) {
    s.replace(pos, 6, std::to_string(value));
  }
  return s;
}

int NumServeKernels() { return wl::kNumServeKernels; }

std::string ServeKernelName(int k) { return wl::kServeKernels[k].name; }

}  // namespace perfbench
